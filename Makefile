.PHONY: all build test verify bench-tables gate bounds soak fuzz-soak loc clean

# worker domains for the grid-shaped benchmarks (make soak JOBS=N); an
# explicit count is honoured exactly, up to 64
JOBS ?= 2

# the revision the speed gate compares against (make gate BASE=<rev>)
BASE ?= HEAD~1

all: build

build:
	dune build @all

test:
	dune runtest

# the tier-1 gate: everything builds, every suite passes, and the smoke
# driver runs each kernel under each scheme end-to-end
verify:
	dune build @all
	dune runtest
	dune exec bin/smoke.exe

# the paper's tables and figures, printed to stdout
bench-tables:
	dune exec bench/main.exe -- --jobs $(JOBS)

# paired speed gate: perfbench paper_grid, squash_storm and area_sweep on
# BASE and on this checkout in alternating pairs; exits non-zero on a paired
# slowdown, heap_peak_mb rise or cell_ms_p95 rise (bench/speed_gate.mli has
# the rule)
gate:
	dune exec bench/gate.exe -- $(BASE)

# differential harness on every paper kernel: all registered backends
# agree and oracle <= prevv <= dynamatic <= serial (non-zero on violation)
bounds:
	dune exec bin/prevv_cli.exe -- bounds

# service chaos soak: 10k requests through `prevv serve`'s engine with a
# seeded fault-plan mix; exits non-zero unless every phase ends with
# lost: 0, the parallel output is byte-identical to the serial replay, and
# only the overload burst sheds
soak:
	dune exec bench/main.exe -- --jobs $(JOBS) soak

# deeper differential-fuzz sweep (FUZZ_ITERS multiplies the qcheck counts)
fuzz-soak:
	FUZZ_ITERS=10 dune exec test/test_fuzz.exe

# lib/ + bin/ source lines: the count ROADMAP's deletion target is kept in,
# then one line per lib/ directory for the per-item budgets
loc:
	@find lib bin -name '*.ml' -o -name '*.mli' | xargs cat | wc -l
	@for d in lib/*/; do \
	  printf '%-16s %6d\n' "$$d" "$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"; \
	done

clean:
	dune clean
