#!/usr/bin/env bash
# Smoke run of the benchmark: every workload at about one tenth size, both
# passes, validating only the output schema and the output checks (no
# timing is judged). Under 30 s once built. Run from anywhere:
#
#     benchmark/smoke.sh
#
# Not wired into .github/workflows/ci.yml yet; a later PR can add a job
# that runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml \
        --target-dir "${CARGO_TARGET_DIR:-target}" -- "$@"
}

# BENCHMARK.json is generated from the binary's own metric table.
run --manifest | diff -u BENCHMARK.json - \
    || { echo "smoke: BENCHMARK.json is out of date (regenerate with --manifest)" >&2; exit 1; }

out=benchmark/scratch/smoke-results
rm -rf "$out" && mkdir -p "$out"
# Without --trace a workload runs both passes and prints one result line
# for each: the untraced pass first, then the traced one.
for workload in sweep_cold round_paths conv_full service_hits service_distinct; do
    run --smoke --seconds 1 --seed 7 --workload "$workload" | grep '^{' > "$out/$workload.jsonl"
done

python3 - "$out" <<'PY'
import json, pathlib, sys
spec = json.load(open("BENCHMARK.json"))
out = pathlib.Path(sys.argv[1])
for workload in spec["workloads"]:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = json.loads((out / f"{workload['name']}.jsonl").read_text().splitlines()[trace])
        where = f"{workload['name']} --trace {trace}"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
        assert result["correct"] is True and result["failed"] == 0, (where, result)
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (where, set(got) ^ set(want))
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), (where, name)
            if group == "end_to_end":
                assert m["value"] > 0, (where, name, m["value"])
print("smoke: 5 workloads x 2 passes: schema and output checks ok")
PY
