# Convenience targets; `make check` is the tier-1 gate plus a smoke run
# of the figure harness (compile + parallel Monte-Carlo on one figure),
# a telemetry smoke (a traced run whose Chrome trace must parse and
# carry the expected span shape), an observability smoke (event ledger,
# explain report and Prometheus scrape, each linted), a both-recorders
# smoke (one faulted run armed with trace and event ledger, both
# linted), a kill-and-resume
# smoke (a journalled run killed mid-sweep must resume to byte-identical
# output), a bench smoke (the compile fast-path micro-benchmarks,
# schema-checked against the committed BENCH_compile.json baseline), a
# simulator-scaling smoke (a 2-point scale sweep whose BENCH_sim.json
# entry must lint), the bench-gate regression sentinel over both
# committed baseline trajectories, a
# daemon smoke (nisqd served through injected network/handler faults,
# overload shedding, wire-capture lint and both drain paths), and a
# reload smoke (calibration hot-reload under concurrent clients with
# faulted candidates: byte-identical replies, rollback accounting, and
# a schema-checked nisq-reload/1 report).

.PHONY: all build test check bench bench-smoke bench-compile bench-scale bench-scale-smoke bench-gate micro resume-smoke serve-smoke reload-smoke

all: build

build:
	dune build

test:
	dune runtest

check:
	dune build
	dune runtest
	dune exec bench/main.exe -- fig5 256
	dune exec bin/nisqc.exe -- run BV4 -m rsmt -t 512 \
	  --trace /tmp/nisq-smoke-trace.json --metrics > /dev/null
	dune exec tools/jsonlint.exe -- --trace /tmp/nisq-smoke-trace.json
	dune exec bin/nisqc.exe -- calibration --save /tmp/nisq-smoke-calib.txt \
	  > /dev/null
	dune exec tools/caliblint.exe -- --strict /tmp/nisq-smoke-calib.txt
	dune exec bin/nisqc.exe -- run BV4 -m rsmt -t 512 --metrics \
	  --events /tmp/nisq-smoke-events.jsonl \
	  --inject "calib:nan@q3;solver:blow;pool:crash@chunk0" > /dev/null
	dune exec tools/jsonlint.exe -- --jsonl /tmp/nisq-smoke-events.jsonl
	dune exec bin/nisqc.exe -- run BV4 -m rsmt -t 512 \
	  --trace /tmp/nisq-smoke-both-trace.json \
	  --events /tmp/nisq-smoke-both-events.jsonl \
	  --inject "pool:crash@chunk0" > /dev/null
	dune exec tools/jsonlint.exe -- --trace /tmp/nisq-smoke-both-trace.json
	dune exec tools/jsonlint.exe -- --jsonl /tmp/nisq-smoke-both-events.jsonl
	dune exec bin/nisqc.exe -- compile Adder -m rsmt \
	  --report /tmp/nisq-smoke-report.json \
	  --prom /tmp/nisq-smoke-prom.txt > /dev/null
	dune exec tools/jsonlint.exe -- --report /tmp/nisq-smoke-report.json
	dune exec tools/jsonlint.exe -- --prom /tmp/nisq-smoke-prom.txt
	tools/resume_smoke.sh
	tools/serve_smoke.sh
	tools/reload_smoke.sh
	$(MAKE) bench-smoke
	$(MAKE) bench-scale-smoke
	$(MAKE) bench-gate

# Short-mode run of the compile fast-path micro-benchmarks; the fresh
# baseline must have the same schema and latest benchmark set as the
# committed one (ns/run drift is expected across machines and is not
# checked).
bench-smoke:
	rm -f /tmp/nisq-bench-compile.json
	dune exec bench/main.exe -- micro-compile \
	  --out /tmp/nisq-bench-compile.json > /dev/null
	dune exec tools/jsonlint.exe -- --bench /tmp/nisq-bench-compile.json \
	  BENCH_compile.json

# Append today's entry to the committed baseline trajectory.
bench-compile:
	dune exec bench/main.exe -- micro-compile --out BENCH_compile.json

# Simulator weak/strong scaling sweep (domains x qubits x trials, both
# backends): appends today's entry to the committed BENCH_sim.json
# trajectory, printing the stabilizer-vs-dense speedup per size.
bench-scale:
	dune exec bench/main.exe -- scale --out BENCH_sim.json

# CI smoke: a 2-point sweep at whatever NISQ_DOMAINS the job selects,
# written to a scratch file (its name set depends on the pool size, so
# it must never be appended to the committed trajectory) and linted.
bench-scale-smoke:
	rm -f /tmp/nisq-bench-sim.json
	dune exec bench/main.exe -- scale --smoke \
	  --out /tmp/nisq-bench-sim.json > /dev/null
	dune exec tools/jsonlint.exe -- --bench /tmp/nisq-bench-sim.json

# Regression sentinel: the latest trajectory entry of each committed
# baseline must stay within the noise threshold of the trailing median
# per benchmark (see lib/benchkit/benchwatch.mli for the policy).
bench-gate:
	dune exec tools/benchwatch.exe -- BENCH_compile.json BENCH_sim.json

resume-smoke:
	tools/resume_smoke.sh

serve-smoke:
	tools/serve_smoke.sh

reload-smoke:
	tools/reload_smoke.sh

bench:
	dune exec bench/main.exe

micro:
	dune exec bench/main.exe -- micro
