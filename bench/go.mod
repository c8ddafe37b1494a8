module modissense/bench

go 1.22

require modissense v0.0.0

replace modissense => ../
