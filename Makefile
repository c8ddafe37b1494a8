GO ?= go

.PHONY: check fmt vet lint-metrics lint-docs lint-api build test test-race census bench bench-smoke bench-repo-smoke fuzz-smoke clean

## check runs the tier-1 verification gate: formatting, vet, the metric-
## cardinality lint, the exported-godoc and production-caller lint, the
## route-table/API.md bijection lint, build, the full test suite under the race detector (the
## read-fault, overload and primary-kill scenarios of internal/bench
## included: a broken invariant there fails this target; so are the server
## flags <-> OPERATIONS.md knob-table bijection and core's derived-tuning
## test, which is why there is no lint-flags target), short fuzz passes over
## the untrusted-input parsers and the two hand codecs held to a reference
## (binary visits, JSON answers), a smoke pass over the read-path,
## write-path, matcher, trending-view, result-cache and answer-codec
## microbenchmarks, and the repository benchmark's own vet and tests. CI and
## pre-merge runs use this.
check: fmt vet lint-metrics lint-docs lint-api build test-race fuzz-smoke bench-smoke bench-repo-smoke

## lint-metrics fails when any obs.L / obs.Label value is not a
## compile-time constant — the static half of the bounded-cardinality
## contract (the registry's per-family series cap is the dynamic half).
lint-metrics:
	$(GO) run ./cmd/obs-lint ./...

## lint-docs fails when an exported identifier in any internal package or
## the Go client lacks a doc comment (the whole library surface, matview
## and the once-uncovered packages included), and when an exported
## function, method, type, const or var of an internal package has no use
## outside _test.go files in this module or bench/ (interface
## implementations count as used) and is not on the short allowlist in
## cmd/doc-lint/unused.go — or an allowlist entry is stale. It type-checks
## the module from source with the standard library alone (a few seconds).
lint-docs:
	$(GO) run ./cmd/doc-lint ./internal/... ./client

## lint-api fails when the served route table (internal/core/router.go)
## and the documented route table (API.md) disagree in either direction.
lint-api:
	$(GO) run ./cmd/api-lint

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## census is the flake census: the whole suite twenty times under the race
## detector, two packages at a time, output kept in census.log. It prints
## every failing test with the lines that follow its FAIL (where a test
## prints its seed), then how often each test failed, and exits non-zero if
## any run failed. Tens of minutes on two CPUs, so it is not part of check;
## the per-package timeout is an hour because twenty race runs of the
## slowest packages outlast go test's default ten minutes.
census:
	@$(GO) test -race -count=20 -p 2 -timeout 1h ./... > census.log 2>&1; status=$$?; \
	grep -A4 -e '--- FAIL' census.log; \
	echo "census: failures per test (full output in census.log):"; \
	grep -o -e '--- FAIL: [^ ]*' census.log | sort | uniq -c | sort -rn; \
	exit $$status

## fuzz-smoke runs each fuzzer for a short, bounded burst: long enough to
## shake out a regression in the WAL's torn-tail / mid-log corruption
## contract, in the parsing of untrusted blocks and compressed payloads, in
## the visit walker's agreement with its reference decoder, or in the answer
## codec's agreement with encoding/json (same bytes out, same documents
## accepted, same values in); short enough for every pre-merge run. (The
## visit fuzzer takes two arguments, and minimizing an interesting pair at
## the default budget would eat the whole burst.)
fuzz-smoke:
	$(GO) test ./internal/kvstore -run FuzzReplayWAL -fuzz FuzzReplayWAL -fuzztime=10s
	$(GO) test ./internal/kvstore -run FuzzBlockDecode -fuzz FuzzBlockDecode -fuzztime=5s
	$(GO) test ./internal/kvstore -run FuzzLZDecompress -fuzz FuzzLZDecompress -fuzztime=5s
	$(GO) test ./internal/model -run FuzzVisitView -fuzz FuzzVisitView -fuzztime=5s -fuzzminimizetime=1s
	$(GO) test ./internal/query -run FuzzResultJSON -fuzz FuzzResultJSON -fuzztime=10s

bench:
	$(GO) run ./cmd/modissense-bench -exp all -quick

## bench-smoke runs one case per hot path a fixed small number of
## iterations — three scan/merge/coprocessor cases, the table's one write
## routine per cell and per batch of 50, the matcher's memo-hit case, the
## view's benchmark-shaped read, a check-in batch folded into the cached
## entries of its writer's friends, a cached search with its ranking current
## and with it to re-derive, and the hand codec encoding and decoding a
## 10-POI answer (its encoding/json reference cases stay out: they measure
## the standard library). It verifies they still build and run, not their
## timings (numbers come from bench/, see BENCHMARK.json).
bench-smoke:
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkScanPath' -benchmem -benchtime=100x
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkMergeIterator' -benchmem -benchtime=50x
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkTableWrite' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkCoprocessor200' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkResultCacheApply|BenchmarkCachedHit' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkResultJSON/(append|decode)$$' -benchmem -benchtime=100x
	$(GO) test ./internal/pubsub -run XXX -bench 'BenchmarkPublishBatch/static' -benchmem -benchtime=100x
	$(GO) test ./internal/matview -run XXX -bench 'BenchmarkTopK/dense' -benchmem -benchtime=100x

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
