# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint test race cover bench gobench tables examples fuzz loc ci clean
.PHONY: crashsweep crashsweep-short crashsweep-file serve-smoke fuzz-wal fuzz-server logvolume lockbench

all: build vet lint test

# What .github/workflows/ci.yml runs.
ci: build vet lint test race cover logvolume lockbench fuzz-wal fuzz-server crashsweep-short crashsweep-file serve-smoke examples

# Deterministic crash-injection sweep with recovery audits
# (see internal/faultinj and docs/FAULTS.md).
crashsweep:
	$(GO) run ./cmd/crashsweep

# Bounded sweep for CI: every 2nd crash point — still several hundred
# audited points, and it runs in seconds. -jobs 4 exercises the parallel
# fan-out; the report is byte-identical to -jobs 1.
crashsweep-short:
	$(GO) run ./cmd/crashsweep -every 2 -jobs 4 -quiet -report crashsweep-report.txt

# File-backed sweep for CI: the same crash/recover/audit cycle on real
# storage (internal/pagestore/filestore) — power cuts, torn writes, and
# lost fsyncs injected at every 5th file operation of all seven
# architectures. The full file sweep is `crashsweep -file -every 1`
# (2950 points); this bounded one still covers every fault kind on
# every engine in a few seconds. Scratch dirs live under a temp dir
# crashsweep creates and removes itself.
crashsweep-file:
	$(GO) run ./cmd/crashsweep -file -every 5 -jobs 4 \
		-report crashsweep-file-report.txt

# simlint: the repo's determinism & simulator-invariant analyzer
# (stdlib-only, built from source; see docs/LINTING.md). The wall time is
# printed so the CI log pins the cost of the call-graph passes — the
# budget is ~2s on the 1-core CI container.
lint:
	@start=$$(date +%s%N); \
	$(GO) run ./cmd/simlint ./internal/... ./cmd/...; rc=$$?; \
	end=$$(date +%s%N); \
	printf 'simlint: wall time %d.%03ds\n' \
		$$(( (end - start) / 1000000000 )) $$(( (end - start) / 1000000 % 1000 )); \
	exit $$rc

build:
	$(GO) build ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage over the recovery kernels (internal/wal, internal/shadoweng,
# internal/diffeng) and their thread-safe wrapper (internal/engine), as
# exercised by the kernel, engine, and fault-injection test suites. The
# merged total is gated at COVER_MIN percent.
COVER_MIN ?= 88
COVER_PKGS = ./internal/wal,./internal/shadoweng,./internal/diffeng,./internal/engine

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=$(COVER_PKGS) \
		./internal/wal ./internal/shadoweng ./internal/diffeng \
		./internal/engine ./internal/faultinj
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { pct = $$3; sub(/%/, "", pct); \
		 printf "recovery-kernel coverage: %s (minimum %d%%)\n", $$3, min; \
		 if (pct + 0 < min) { print "FAIL: coverage below minimum"; exit 1 } }'

# The repository's benchmark: five workloads over the real server path,
# end-to-end metrics with audits on every repeat (see bench/README.md).
# Compare two result sets with `go run ./bench -compare A.json B.json`.
bench:
	$(GO) run ./bench

# Short end-to-end smoke of the networked front end: dbload self-hosts an
# in-process dbserver per architecture, drives concurrent debit/credit
# sessions over TCP, and fails on any balance drift. Small enough for CI.
serve-smoke:
	$(GO) run ./cmd/dbload -engines all -sessions 25 -txns 2 -pages 32

# Go's own microbenchmarks.
gobench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table of the paper (plus the extension studies).
tables:
	$(GO) run ./cmd/dbmsim -table all

# Run every example application.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking
	$(GO) run ./examples/parallellog
	$(GO) run ./examples/comparison

# Non-test Go lines outside testdata/: the size ROADMAP tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | xargs cat | wc -l

# What a transaction costs in stable log bytes, puts and forces, on 8-byte
# and on 4 KiB pages: the table test's log lines are the report.
logvolume:
	$(GO) test -run 'TestLogVolume' -v ./internal/wal/

# What the lock path costs: ns/op and allocs/op of one uncontended transfer
# (S, S, X, X, release) and of one 4096-page live-audit transaction.
lockbench:
	$(GO) test -run xxx -bench BenchmarkLockTransfer -benchmem ./internal/lockmgr/

# Bounded runs of the WAL's fuzz targets: the log-chunk decoder, and restart
# over arbitrary stable chunks. `go test -fuzz` takes one target per run.
fuzz-wal:
	$(GO) test -run xxx -fuzz 'FuzzUnmarshalRecord$$' -fuzztime 10s ./internal/wal/
	$(GO) test -run xxx -fuzz 'FuzzRecover$$' -fuzztime 10s ./internal/wal/

# Bounded run of the wire protocol's request decoder fuzz target.
fuzz-server:
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/server/

# Short runs of the native fuzz targets.
fuzz: fuzz-wal fuzz-server

clean:
	rm -rf internal/*/testdata/fuzz
	rm -f cover.out
