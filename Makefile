# Development entry points. `make verify` is the pre-merge gate.

CARGO ?= cargo

.PHONY: verify fmt clippy doc build test sweep bench bench-smoke serve kvbench-quick kvbench-test kvbench-ab loc

verify: fmt clippy doc test sweep

fmt:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied: an intra-doc link to a renamed, deleted or
# private item fails the build instead of dangling.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

build:
	$(CARGO) build --release

# Tier-1: the whole workspace (`default-members` lists every member) must
# build in release and every test pass.
test: build
	$(CARGO) test -q

# The benchmark package sits outside the workspace; these keep it building
# and correct (exit code only — no perf gate on shared runners).
kvbench-quick:
	$(CARGO) run --release --offline --manifest-path benchmark/Cargo.toml -- --quick

kvbench-test:
	$(CARGO) test --manifest-path benchmark/Cargo.toml

# Paired A/B of kvbench, the noise-floor rule as one command: BASE (a git
# revision, checked out under target/kvbench-ab/) against the working
# tree, PAIRS alternating pairs plus one unseen seed, per-metric medians,
# quartiles and win counts (see scripts/kvbench_ab.py). Without BASE:
# HEAD if tracked files are modified, else HEAD~1.
BASE ?=
WORKLOAD ?= mixed_repl
PAIRS ?= 10
kvbench-ab:
	python3 scripts/kvbench_ab.py --workload $(WORKLOAD) --pairs $(PAIRS) \
		$(if $(BASE),--base $(BASE))

# Strided crash-point sweep: fault injection at many persistence events,
# recovery verified differentially (see DESIGN.md, "Crash testing"), plus
# the service-layer ack-contract sweep (tests/server_crash.rs) and the
# replication failover sweep (tests/repl_failover.rs).
sweep:
	$(CARGO) test -q --test crash_sweep
	$(CARGO) test -q --test server_crash
	$(CARGO) test -q --test repl_failover

# Sharded CacheKV service over TCP (see DESIGN.md, "Service layer").
# Override with e.g. `make serve ADDR=0.0.0.0:7000 SHARDS=4`; replication
# flags pass through too: `make serve REPL_MODE=sync REPL_FOLLOW=host:port`.
ADDR ?= 127.0.0.1:4840
SHARDS ?= 2
REPL_MODE ?= off
REPL_FOLLOW ?=
serve:
	$(CARGO) run --release -p cachekv-server --bin cachekv_serve -- \
		ADDR=$(ADDR) SHARDS=$(SHARDS) REPL_MODE=$(REPL_MODE) \
		$(if $(REPL_FOLLOW),REPL_FOLLOW=$(REPL_FOLLOW))

bench:
	$(CARGO) bench --workspace

# Code lines per crate and per file of crates/server/src (comments, blank
# lines and everything from a file's first `#[cfg(test)]` on are not
# counted; see scripts/loc.sh). The kLoC figures in ROADMAP.md use it.
loc:
	@sh scripts/loc.sh

# Scaled-down figure runs that must each emit a parseable metrics artifact
# (target/metrics/<fig>.json) passing validate_metrics.
SMOKE_FIGS := fig10_write_throughput fig11_read_throughput fig_scan
METRICS_DIR := $(CURDIR)/target/metrics
bench-smoke:
	for fig in $(SMOKE_FIGS); do \
		CACHEKV_OPS=2000 CACHEKV_METRICS_DIR=$(METRICS_DIR) \
			$(CARGO) bench -p cachekv-bench --bench $$fig || exit 1; \
	done
	$(CARGO) run -q -p cachekv-bench --bin validate_metrics -- \
		$(SMOKE_FIGS:%=$(METRICS_DIR)/%.json)
