#!/usr/bin/env bash
# Repeatability check and record of bench/memload. From the repository
# root:
#
#   bash bench/repeat.sh [runs-per-set]        (default 5)
#
# Runs two sets of untraced runs of every workload, each run on a seed of
# its own and the workload order reversed every other run, then one
# traced run per workload. For each end-to-end metric it prints each
# set's median, quartiles and spread (Q3 - Q1) / median. It fails when
# the two sets' medians differ by more than the metric's bound in
# BENCHMARK.json, when a set's spread exceeds the bound (setup_s
# excepted), or when any run fails or reports a wrong result.
# The record is written to bench/results/<date>-<revision>.json.
set -euo pipefail

runs=${1:-5}
out=bench/out/repeat
rm -rf "$out"
mkdir -p "$out" bench/results
read -r secs names < <(python3 -c 'import json; b = json.load(open("BENCHMARK.json")); print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
read -ra workloads <<<"$names"

# bench runs one workload; a failed run leaves no record, which the
# summary reports.
bench() {
	bash bench/run.sh --workload "$1" --seed "$2" --seconds "$secs" --trace "$3" -o "$4" >"${4%.json}.log" ||
		echo "run $1 seed $2 trace $3 exited $?" >&2
}

seed=0
for set in 1 2; do
	for ((i = 1; i <= runs; i++)); do
		seed=$((seed + 1))
		order=("${workloads[@]}")
		if ((seed % 2 == 0)); then
			for ((k = 0; k < ${#workloads[@]}; k++)); do
				order[k]=${workloads[${#workloads[@]} - 1 - k]}
			done
		fi
		for w in "${order[@]}"; do
			echo "set $set run $i/$runs: $w (seed $seed)" >&2
			bench "$w" "$seed" 0 "$out/$set.$w.$seed.json"
		done
	done
done
for w in "${workloads[@]}"; do
	echo "traced: $w" >&2
	bench "$w" 1 1 "$out/trace.$w.json"
done

python3 - "$out" "$runs" <<'EOF'
import datetime, json, os, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
names = [w["name"] for w in bench["workloads"]]
records = {}
for f in sorted(os.listdir(out)):
    if f.endswith(".json"):
        records[f[:-len(".json")]] = json.load(open(os.path.join(out, f)))

failures = []
def check(ok, why):
    if not ok:
        failures.append(why)

def stats(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}

stamp = next(iter(records.values()), {})
e2e = {}
print(f"{'workload':17} {'metric':15} {'set 1 median [Q1, Q3] spread':>42} {'set 2 median [Q1, Q3] spread':>42} {'drift':>6} bound")
for w in names:
    runs_of = {s: [r for k, r in records.items() if k.startswith(f"{s}.{w}.")] for s in ("1", "2")}
    for s, rs in runs_of.items():
        check(len(rs) == runs, f"{w}: set {s} has {len(rs)} of {runs} runs")
        for r in rs:
            res = r["result"]
            check(res["correct"] and res["failed"] == 0,
                  f"{w} seed {r['seed']}: correct={res['correct']} failed={res['failed']} {r.get('failed_checks')}")
    if any(len(rs) < 2 for rs in runs_of.values()):
        continue
    e2e[w] = {}
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sets = [stats([r["result"]["metrics"][name]["value"] for r in runs_of[s]]) for s in ("1", "2")]
        drift = abs(sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
        check(drift <= bound, f"{w} {name}: set medians differ by {drift:.1%}, bound {bound:.0%}")
        for s, x in zip("12", sets):
            check(name == "setup_s" or x["spread"] <= bound,
                  f"{w} {name}: set {s} spread {x['spread']:.1%}, bound {bound:.0%}")
        e2e[w][name] = {"unit": m["unit"], "bound": bound, "set1": sets[0], "set2": sets[1], "drift": drift}
        cells = [f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}] {x['spread']:6.1%}" for x in sets]
        print(f"{w:17} {name:15} {cells[0]:>42} {cells[1]:>42} {drift:6.1%} {bound:.0%}")

layers = {}
for w in names:
    r = records.get(f"trace.{w}")
    check(r is not None and r["result"]["correct"], f"{w}: traced run failed")
    if r is not None:
        layers[w] = {k: v["value"] for k, v in r["result"]["metrics"].items()}

revision = stamp.get("revision", "unknown")
record = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
    "revision": revision, "go_version": stamp.get("go_version"), "w": stamp.get("w"),
    "nproc": stamp.get("nproc"), "run_seconds": bench["run_seconds"], "runs_per_set": runs,
    "seeds": {"set1": list(range(1, runs + 1)), "set2": list(range(runs + 1, 2 * runs + 1)), "traced": 1},
    "end_to_end": e2e, "per_layer": layers, "failures": failures,
}
path = os.path.join("bench", "results", f"{record['date']}-{revision[:12]}.json")
with open(path, "w") as f:
    json.dump(record, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"record: {path}")
for why in failures:
    print("FAIL:", why)
sys.exit(1 if failures else 0)
EOF
