GO ?= go

.PHONY: all build fmt vet lint test race fuzz bench crash chaos size ci

all: build

build:
	$(GO) build ./...

# Fail if any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-specific static analysis, fifteen rules. Ten are syntactic
# (device-io, tree-state, compaction-step and wal-frame from one
# confinement table; global-rand, unchecked-err, layering, obs-event,
# retry-bounded, goroutine-shutdown: DESIGN.md §6.3); five share three
# CFG/dataflow analyses (lock-discipline + shard-lock-order, view-refcount
# + span-finish, sentinel-error-flow: §12). Rule tables are in
# internal/lint/lint.go, fixtures under internal/lint/rules/testdata.
lint:
	$(GO) run ./cmd/lsmlint ./...

test:
	$(GO) test ./...

# Fuzz smoke: the WAL frame decoder, the checksummed block read path and
# the memtable snapshot cursor, 10s each (go's fuzzer takes one -fuzz
# target per invocation). Longer soaks: bump -fuzztime.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzBlockChecksum -fuzztime 10s ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzMemtableCursor -fuzztime 10s ./internal/memtable

# Race-detector run; includes the TestRaceStress and
# TestRaceIteratorSnapshot concurrency suites.
race:
	$(GO) test -race ./...

# The repo's benchmark (BENCHMARK.json): four workloads through the public
# API on a file-backed store, ~10 s each. bench/README.md documents the
# metrics, -reps/-compare, the per-layer table and the traced run. bench/ is
# its own module, so `go test ./...` here does not cover it; CI runs
# `cd bench && go test ./...` separately.
bench:
	bash bench/run.sh

# Power-cut recovery harness (internal/crashloop via cmd/crashloop): all
# three WAL sync policies, randomized crashes and torn tails, acked-write
# loss and prefix consistency checked after every recovery. Bounded for
# CI; run `go run ./cmd/crashloop -iters 500` for a soak.
crash:
	$(GO) run ./cmd/crashloop -iters 60 -ops 100 -sync every
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync interval -interval 1ms
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync never
	$(GO) run ./cmd/crashloop -iters 50 -ops 100 -sync every -shards 4
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync interval -interval 1ms -shards 4
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync never -shards 4
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync every -layout tiering -tier-runs 3
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync every -layout lazy -tier-runs 3

# Fault-domain isolation soak (internal/crashloop chaos mode via
# cmd/crashloop -chaos): seeded device-fault scenarios — bit rot, ENOSPC,
# sticky sync failures, injected latency, flaky reads — each injected into
# one shard of a 4-shard store and checked against a paired fault-free
# run: unfaulted shards must stay byte-identical and healthy, every health
# transition must carry a cause and name only the faulted shard, and a
# crash+reopen must recover every acked write. Same entry point for a
# longer soak: `go run ./cmd/crashloop -chaos -ops 20000`.
chaos:
	$(GO) run ./cmd/crashloop -chaos

# Size of the engine, as ROADMAP counts it: non-test Go lines outside
# bench/ (lint fixtures included) and the number of Options fields.
size:
	@printf 'non-test Go lines outside bench/: '; \
	find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@printf 'Options fields: '; \
	awk '/^type Options struct/ {in_opts = 1; next} in_opts && /^}/ {exit} in_opts && /^\t[A-Z][A-Za-z0-9]* / {n++} END {print n}' options.go

ci: fmt vet lint test race fuzz crash chaos
