#!/usr/bin/env python3
"""Concurrent gemsd_run processes sharing one working directory.

Starts four gemsd_run processes at once, each on its own shrunk shipped spec
(warmup 0.5 s, measure 1 s). Each prints --csv to stdout; all of them pass a
bare --timeseries (default path results/TIMESERIES_run.json) and the same
--metrics-json file, so every write races with three others. Checks:

  - each process's CSV is byte-identical to a serial run of the same spec;
  - the shared time series and metrics files validate against the schemas
    (whichever process renamed last, the file is whole);
  - no temp file is left behind.

Usage: concurrent_runs_test.py <gemsd_run> <gemsd_validate> <source dir>
"""
import pathlib
import re
import subprocess
import sys
import tempfile

SPECS = ["fig41_affinity_noforce", "bt_on_gem_force", "trace_pcl", "shards_glt"]


def shrink(text):
    text = re.sub(r"^warmup\s*=.*$", "warmup = 0.5", text, flags=re.M)
    return re.sub(r"^measure\s*=.*$", "measure = 1", text, flags=re.M)


def command(gemsd_run, spec):
    return [gemsd_run, str(spec), "--csv", "--jobs=1", "--timeseries",
            "--metrics-json=shared_metrics.json"]


def main():
    gemsd_run, gemsd_validate, source = sys.argv[1:4]
    failures = []
    with tempfile.TemporaryDirectory(prefix="gemsd_concurrent_") as tmp:
        tmp = pathlib.Path(tmp)
        specs = []
        for name in SPECS:
            spec = tmp / (name + ".ini")
            spec.write_text(shrink(
                (pathlib.Path(source) / "specs" / (name + ".ini")).read_text()))
            specs.append(spec)

        serial = {}
        for spec in specs:
            work = tmp / ("serial_" + spec.stem)
            work.mkdir()
            serial[spec] = subprocess.run(
                command(gemsd_run, spec), cwd=work, check=True,
                stdout=subprocess.PIPE).stdout

        shared = tmp / "shared"
        shared.mkdir()
        procs = {spec: subprocess.Popen(command(gemsd_run, spec), cwd=shared,
                                        stdout=subprocess.PIPE)
                 for spec in specs}
        for spec, proc in procs.items():
            out, _ = proc.communicate()
            if proc.returncode != 0:
                failures.append(f"{spec.stem}: exit {proc.returncode}")
            elif out != serial[spec]:
                failures.append(f"{spec.stem}: CSV differs from the serial run")

        documents = [shared / "results" / "TIMESERIES_run.json",
                     shared / "shared_metrics.json"]
        validate = subprocess.run(
            [gemsd_validate, "--schemas=" + str(pathlib.Path(source) / "schemas")]
            + [str(d) for d in documents],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if validate.returncode != 0:
            failures.append("shared documents do not validate:\n" +
                            validate.stdout)

        leftovers = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*.tmp"))
        if leftovers:
            failures.append("temp files left behind: " + ", ".join(leftovers))

    for f in failures:
        print("FAIL:", f)
    if not failures:
        print(f"ok: {len(SPECS)} concurrent runs match their serial runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
