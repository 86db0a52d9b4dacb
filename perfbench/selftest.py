"""Self-test of the benchmark at a tiny input size.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, emits every metric named
in BENCHMARK.json with its unit; that a corrupted output (a truncated label
CSV) is reported as a failure and not as a fast run; and that the benchmark
refuses to run where there is no program to measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def run_tiny(argv: list, **kwargs) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, sizes=run.TINY, **kwargs)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def test_metrics_and_units(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_tiny(["--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace)])
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace} did not pass: {result}")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: metrics/units differ: "
                                  f"missing {sorted(set(wanted) - set(got))}, "
                                  f"extra {sorted(set(got) - set(wanted))}, "
                                  f"units {[(k, got[k], wanted[k]) for k in got if k in wanted and got[k] != wanted[k]]}")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)), f"{name}: value {m['value']!r}")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics with units")


def test_truncated_label_csv_fails() -> None:
    def truncate(stage, work: Path) -> None:
        if stage.name == "label":
            victim = sorted((work / "labeled").glob("*.csv"))[0]
            lines = victim.read_text(encoding="utf-8").splitlines(keepends=True)
            victim.write_text("".join(lines[:-1]), encoding="utf-8")

    code, result = run_tiny(["--workload", "chain", "--seed", "3", "--seconds", "1"],
                            after_stage=truncate)
    expect(code != 0, "a truncated label CSV still exited 0")
    expect(not result["correct"] and result["failed"] >= 1,
           f"a truncated label CSV was not counted as a failure: {result}")
    print("ok  truncated label CSV is a failed run")


def test_refuses_without_program() -> None:
    bare = run.BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(done.returncode != 0, "ran without the program and exited 0")
    expect('"correct"' not in done.stdout, "printed a result without the program")
    print("ok  refuses to run without src/")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    test_metrics_and_units(spec)
    test_truncated_label_csv_fails()
    test_refuses_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
