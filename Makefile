GO ?= go

.PHONY: check fmt vet build test test-race crash-points mutants census bench bench-smoke bench-repo-smoke fuzz-smoke clean

## check runs the tier-1 verification gate: formatting, vet, build, the full
## test suite under the race detector, the crash-point checker's time under
## it, short fuzz passes over the
## untrusted-input parsers and the hand codecs held to a reference (binary
## visits, JSON answers, JSON search and check-in requests), a smoke pass
## over the read-path, block-load, write-path, flush, compaction, matcher,
## publish-hook, trending-view, result-cache, answer-codec and request-codec
## microbenchmarks, the repository benchmark's own vet and tests, and the
## mutant catalogue's runner. CI and pre-merge runs use this.
## The static contracts are tests of the suite, so plain `go test ./...`
## holds them too:
##   - TestStaticContracts (lint_test.go) loads the module once, type-checked:
##     every export of internal/... and client has a doc comment, every
##     export of an internal package has a production caller or an allowlist
##     entry there, and every obs.L / obs.Label value is a constant;
##   - TestRouteTableMatchesAPIDoc (internal/core) holds routeTable and
##     API.md's route table to each other;
##   - TestEveryMetricFamilyHasAReader (internal/core) names a reader for
##     every served metric family, and TestFlagsMatchOperationsKnobs
##     (cmd/modissense-server) holds the server flags to OPERATIONS.md;
##   - the read-fault, overload and primary-kill scenarios (internal/bench);
##   - the six Example functions (example_test.go, client/example_test.go)
##     run the paper's demo flows and must print their // Output: blocks;
##   - TestMutantCatalogue (mutants_test.go) holds every catalogue row to
##     the code and tests it names, without compiling them.
check: fmt vet build test-race crash-points fuzz-smoke bench-smoke bench-repo-smoke mutants

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet also vets the mutant runner, which only the mutants tag builds.
vet:
	$(GO) vet ./...
	$(GO) vet -tags mutants .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## crash-points runs the crash-point checker (TestCrashPoints, internal/core)
## alone under the race detector and prints its time, or its whole output if
## it fails. Tier-1 holds it to 5 s without -race on two CPUs; it took
## 2.9–3.5 s under -race on two CPUs when it was written.
crash-points:
	@out="$$($(GO) test -race -count=1 -v -run '^TestCrashPoints$$' ./internal/core 2>&1)"; status=$$?; \
	if [ $$status -eq 0 ]; then echo "$$out" | grep -e '^--- ' -e '^ok'; else echo "$$out"; fi; exit $$status

## mutants runs the mutant catalogue (mutants_test.go, runner in
## mutants_run_test.go): every row's edit is applied to a copy of the module
## and every test it names must fail, two rows at a time. A row with a
## named test that passes, whose old text no longer matches, whose edit
## does not build, or whose run times out before each named test failed
## fails the target. 86 rows (85 that name tests) took 94–102 s on two CPUs, so
## check runs it.
mutants:
	$(GO) test -tags mutants -count=1 -timeout 20m -run TestMutants .

## census is the flake census, in two passes whose output is kept in
## census.log: the whole suite twenty times under the race detector, two
## packages at a time, then twenty times without it, four packages at a
## time. The second pass is there because some flakes need the timing of
## uninstrumented code and of packages running side by side, which the race
## pass does not give them. It prints every failing test with the lines
## that follow its FAIL (where a test prints its seed), then how often each
## test failed, and exits non-zero if any run failed. Tens of minutes on two
## CPUs, so it is not part of check; the per-package timeout is an hour
## because twenty race runs of the slowest packages outlast go test's
## default ten minutes.
census:
	@$(GO) test -race -count=20 -p 2 -timeout 1h ./... > census.log 2>&1; status=$$?; \
	echo '== non-race pass: -count=20 -p 4 ==' >> census.log; \
	$(GO) test -count=20 -p 4 -timeout 1h ./... >> census.log 2>&1 || status=1; \
	grep -A4 -e '--- FAIL' census.log; \
	echo "census: failures per test (full output in census.log):"; \
	grep -o -e '--- FAIL: [^ ]*' census.log | sort | uniq -c | sort -rn; \
	exit $$status

## fuzz-smoke runs each fuzzer for a short, bounded burst: long enough to
## shake out a regression in the WAL's torn-tail / mid-log corruption
## contract, in the parsing of untrusted blocks, in the visit walker's and
## the documents log's decoders' agreement with their reference decoders,
## in the visit row key's round trip
## (the only copy of a replicated visit's user and time), in the JSON
## scanner and writer's agreement with encoding/json (json.Valid's
## documents, json.Marshal's strings and floats), or in the answer and
## request codecs' agreement with encoding/json (same bytes out, same
## documents accepted, same values in, and each request body's append and
## decode one round trip; one target per body, in internal/wire); short
## enough for every pre-merge run. (The visit fuzzer and the request bodies
## get a one-second minimizing budget: minimizing one interesting input at
## the default budget would eat the whole burst — the visit fuzzer takes two
## arguments, and the request fuzzers' seeds are kilobyte bodies.)
fuzz-smoke:
	$(GO) test ./internal/kvstore -run FuzzReplayWAL -fuzz FuzzReplayWAL -fuzztime=10s
	$(GO) test ./internal/kvstore -run FuzzBlockDecode -fuzz FuzzBlockDecode -fuzztime=5s
	$(GO) test ./internal/model -run FuzzVisitView -fuzz FuzzVisitView -fuzztime=5s -fuzzminimizetime=1s
	$(GO) test ./internal/model -run FuzzDocRecord -fuzz FuzzDocRecord -fuzztime=5s
	$(GO) test ./internal/repos -run FuzzVisitRowKey -fuzz FuzzVisitRowKey -fuzztime=5s
	$(GO) test ./internal/jsonwire -run FuzzSkipMatchesValid -fuzz FuzzSkipMatchesValid -fuzztime=5s
	$(GO) test ./internal/jsonwire -run FuzzWriterMatchesMarshal -fuzz FuzzWriterMatchesMarshal -fuzztime=5s
	$(GO) test ./internal/query -run FuzzResultJSON -fuzz FuzzResultJSON -fuzztime=10s
	$(GO) test ./internal/wire -run FuzzSearchRequest -fuzz FuzzSearchRequest -fuzztime=8s -fuzzminimizetime=1s
	$(GO) test ./internal/wire -run FuzzCheckinsRequest -fuzz FuzzCheckinsRequest -fuzztime=7s -fuzzminimizetime=1s

bench:
	$(GO) run ./cmd/modissense-bench -exp all -quick

## bench-smoke runs one case per hot path a fixed small number of
## iterations — the scan path, the store's one read, over key-ordered
## disjoint segments (one live source a range, as N one-range scans and as
## one multi-range scan) and over overlapping ones (the memtable and two
## segments hold every range), the merge iterator, the web server's merge of
## a search_scan-shaped query (12 region outputs summed into one candidate per
## POI and ranked to a top 10, whose bytes and allocations tier-1's
## TestSumBytesPerCandidate and TestRankAllocs bound), the coprocessor (over rows naming one
## document version per POI, the per-POI document memo's hit, and over rows
## alternating between two, its miss), a block load served
## from its segment slot (a hit, which TestBlockLoadHitAllocs keeps at zero
## allocations) and one decoded, admitted and evicting (a miss), the visit parser on
## both layouts' payloads and on one with multi-byte lengths, the shared POI documents'
## intern hit and keyed shared-document parse (which TestSharedDocsAllocs keeps at
## zero allocations), the table's one write
## routine per cell and per batch of 50, a flush and a compaction (whose
## bytes per input cell tier-1's TestCompactionAllocsPerInputCell bounds),
## the matcher's memo-hit case (BenchmarkPublishBatch/static, whose
## allocations tier-1's TestPublishBatchMemoHitAllocs keeps at zero), the
## ingest hook's pub/sub stage on memoised check-ins (BenchmarkPublishVisits,
## zero allocations by tier-1's TestPublishVisitsAllocs), the
## registry's idle subscription (whose bytes per op tier-1's
## TestAddIdleMemoryBudget bounds), the trending view's reads over a dense and
## a sparse catalog (with their windows held, TestTopKAllocsConstant's two
## allocations; with every window rebuilt; and, dense, with visits applied
## between reads), a check-in batch folded into the cached
## entries of its writer's friends, a cached search with its ranking current
## and with it to re-derive, the hand codec encoding and decoding a 10-POI
## answer, and the request codecs (internal/wire) appending and decoding the
## benchmark-shaped search and 50-item check-in bodies (the encoding/json
## reference cases stay out: they measure the standard library). It
## verifies they still build and run, not their timings (numbers come from
## bench/, see BENCHMARK.json).
bench-smoke:
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkScanPath' -benchmem -benchtime=100x
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkMergeIterator' -benchmem -benchtime=50x
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkBlockLoad' -benchmem -benchtime=100x
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkTableWrite|BenchmarkFlush|BenchmarkCompaction' -benchmem -benchtime=100x
	$(GO) test ./internal/model -run XXX -bench 'BenchmarkVisitViewParse|BenchmarkSharedDocs' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkCoprocessor200Friends(Binary|TwoVersions)$$' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkMergeRank' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkResultCacheApply|BenchmarkCachedHit' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkResultJSON/(append|decode)$$' -benchmem -benchtime=100x
	$(GO) test ./internal/wire -run XXX -bench 'BenchmarkRequestJSON/.*/^(append|decode)$$' -benchmem -benchtime=100x
	$(GO) test ./internal/pubsub -run XXX -bench 'BenchmarkPublishBatch/static|BenchmarkAddIdle' -benchmem -benchtime=100x
	$(GO) test ./internal/core -run XXX -bench 'BenchmarkPublishVisits' -benchmem -benchtime=100x
	$(GO) test ./internal/matview -run XXX -bench 'BenchmarkTopK' -benchmem -benchtime=100x

## bench-repo-smoke vets and tests the repository benchmark (bench/, a Go
## module of its own that `go build ./...` and `go test ./...` here do not
## see): seconds, and it is what notices an API rename in internal/ breaking
## the benchmark every performance claim is measured with.
bench-repo-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## clean removes what building and running the repository benchmark and
## the census leave in the working tree (all gitignored).
clean:
	rm -rf .bench_build bench/out census.log
