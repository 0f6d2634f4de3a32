GO ?= go

.PHONY: all build test race bench bench-compare bench-check crash fmt vet golden serve server-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark run: one benchmark per paper table/figure plus the
# design ablations (bench_test.go).
bench:
	$(GO) test -run XXX -bench . -benchtime=10x .

# Regenerate the committed merge-join comparison grid (BENCH_N.json).
bench-compare:
	$(GO) run ./cmd/fuzzybench -compare -scalediv 8

# CI's bench-regression smoke: re-measure table1 against the committed
# baseline and fail when a cold wall exceeds 1.6x its baseline (a >60%
# regression).
bench-check:
	$(GO) run ./cmd/benchcheck -baseline BENCH_9.json -experiments table1 -threshold 1.6

# The crash-recovery fault-injection sweep (CRASH_SEED varies the torn
# prefix length and flipped bit position; CI runs seeds 1-4).
crash:
	$(GO) test -run TestCrashRecovery -count=1 -v ./internal/workload

# Regenerate the golden EXPLAIN plans (internal/core/testdata/golden)
# after an intentional planner change; the diff is the review artifact.
golden:
	$(GO) test ./internal/core -run TestGoldenPlans -update-golden

# Run the network server on the default port with a throwaway database.
serve:
	$(GO) run ./cmd/fuzzydbd

# CI's live-server smoke: start fuzzydbd, drive it with 200 concurrent
# fuzzyload connections (answers verified), SIGTERM, require a clean
# checkpointed shutdown.
server-smoke:
	$(GO) build -o /tmp/fuzzydbd ./cmd/fuzzydbd
	$(GO) build -o /tmp/fuzzyload ./cmd/fuzzyload
	/tmp/fuzzydbd -addr 127.0.0.1:4540 & \
	pid=$$!; sleep 1; \
	/tmp/fuzzyload -addr 127.0.0.1:4540 -connections 200 -duration 5s; rc=$$?; \
	kill -TERM $$pid; wait $$pid; \
	exit $$rc

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
