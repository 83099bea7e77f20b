# Reliable Object Storage — development targets.

GO ?= go
# Extra flags for the soak runs, e.g. `make soak RACE=1` or
# `make soak GOFLAGS=-count=1`. Note that RACE=1 races the soak
# *harness* (the randomized driver, its goroutines, the guardian under
# load) — the exhaustive crash-point sweep replays each history
# single-threaded and asserts on deterministic traces, so its
# assertion path gains nothing from the race detector beyond runtime.
RACE ?=
SOAKFLAGS := $(GOFLAGS) $(if $(RACE),-race)

.PHONY: all build test race cover bench fuzz lint soak chaos examples tables figures clean

all: lint build test

build:
	$(GO) build ./...

# Static checks: go vet plus the repository's own analyzers
# (cmd/roslint), which enforce the thesis's recovery invariants —
# forced outcome entries, observed I/O errors, sweep determinism,
# wrap-safe sentinel comparisons, and mutex discipline, plus the
# distributed-layer invariants (epoch-fenced replica mutations, total
# wire codecs, deadline-guarded conn I/O). The path-sensitive checks
# run on the internal/analysis/cfg dataflow engine.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/roslint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/... .

bench:
	$(GO) test -bench . -benchmem -benchtime 50x .
	$(GO) test -bench . -benchtime 100x ./internal/stablelog/ ./internal/value/

fuzz:
	$(GO) test -run xxx -fuzz FuzzUnflatten -fuzztime 30s ./internal/value/
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 30s ./internal/logrec/
	$(GO) test -run xxx -fuzz FuzzDecodePage -fuzztime 30s ./internal/stable/
	$(GO) test -run xxx -fuzz FuzzPageCodec -fuzztime 30s ./internal/stable/
	$(GO) test -run xxx -fuzz FuzzReadBackward -fuzztime 30s ./internal/stablelog/
	$(GO) test -run xxx -fuzz FuzzDecodeRepFrame -fuzztime 30s ./internal/stablelog/
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeRepMessage -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeShardMessage -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeTable -fuzztime 30s ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzDecodeEvent -fuzztime 30s ./internal/obs/
	$(GO) test -run xxx -fuzz FuzzDecodeConfig -fuzztime 30s ./internal/chaos/workload/

# Crash-injection soak across all backends: randomized histories
# (single-node + distributed), then the exhaustive crash-point sweep
# over every topology (single with read-path decay, replicated,
# sharded).
soak:
	$(GO) run $(SOAKFLAGS) ./cmd/roscrash -steps 2000 -seeds 5
	$(GO) run $(SOAKFLAGS) ./cmd/roscrash -sweep -seeds 5 -sweep-steps 4

# Bounded chaos testnet: real rosd processes, generated load, injected
# kills/pauses/partitions/delays/disk-full, then the serial oracle and
# the merged-trace invariant checker. CI-sized — one episode per
# topology, well under five minutes.
chaos:
	$(GO) test -run TestEpisode -count=1 -timeout 5m ./internal/chaos/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking
	$(GO) run ./examples/reservations
	$(GO) run ./examples/comparison
	$(GO) run ./examples/directory
	rm -rf /tmp/ros-example-data && $(GO) run ./examples/persistent /tmp/ros-example-data

# The experiment tables of EXPERIMENTS.md: E1–E6, the thesis's
# in-process comparison; the served path is measured by `go run ./bench`.
tables:
	$(GO) run ./cmd/rosbench

# The thesis's log-scenario figures.
figures:
	$(GO) run ./cmd/roslog -figure all

clean:
	rm -rf ros-data .bench_build bench/out
