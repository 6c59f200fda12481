#!/usr/bin/env python3
"""Tests of benchjson.py on a fixed `go test -bench` transcript.

Run: python3 scripts/test_benchjson.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchjson  # noqa: E402

TRANSCRIPT = os.path.join(HERE, "testdata", "benchjson.txt")


def convert(text):
    """Run the converter as CI does, on text; return (exit code, stderr,
    {file name: [record, ...]})."""
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "bench.txt")
        with open(src, "w") as f:
            f.write(text)
        out = os.path.join(d, "out")
        p = subprocess.run([sys.executable, os.path.join(HERE, "benchjson.py"), src, out],
                           capture_output=True, text=True)
        files = {}
        if os.path.isdir(out):
            for name in os.listdir(out):
                with open(os.path.join(out, name)) as f:
                    files[name] = json.load(f)
        return p.returncode, p.stderr, files


class TranscriptTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(TRANSCRIPT) as f:
            cls.text = f.read()
        cls.code, cls.stderr, cls.files = convert(cls.text)

    def test_files_by_package(self):
        self.assertEqual(self.code, 0, self.stderr)
        self.assertEqual(sorted(self.files), ["BENCH_schedule.json", "BENCH_serve.json"])
        names = {f: [r["name"] for r in recs] for f, recs in self.files.items()}
        # core rows go to schedule; server and fleet rows both go to serve,
        # in the order they ran. Benchmark and -N are stripped, a name's
        # own dashes and slashes kept.
        self.assertEqual(names["BENCH_schedule.json"],
                         ["ScheduleBlock/nasa7", "FormatScheduled/nasa7"])
        self.assertEqual(names["BENCH_serve.json"],
                         ["ServeSimulate/warm", "ServeSimulate/warm-sampled16", "FleetRoute"])

    def test_median_min_max(self):
        rec = self.files["BENCH_schedule.json"][0]
        # Samples 290000, 270000, 280000 (282 allocs), 300000, 260000: the
        # median sample brings its own allocs, bytes and iterations.
        self.assertEqual(rec, {
            "name": "ScheduleBlock/nasa7",
            "ns_per_op": 280000.0,
            "min_ns": 260000.0,
            "max_ns": 300000.0,
            "samples": 5,
            "allocs_per_op": 282,
            "bytes_per_op": 60100,
            "iters": 4100,
        })
        route = self.files["BENCH_serve.json"][2]
        self.assertEqual((route["ns_per_op"], route["min_ns"], route["max_ns"]),
                         (60.40, 59.80, 62.00))
        self.assertEqual((route["allocs_per_op"], route["iters"]), (0, 20000000))

    def test_keys_in_gate_order(self):
        rec = self.files["BENCH_serve.json"][0]
        self.assertEqual(list(rec), ["name", "ns_per_op", "min_ns", "max_ns", "samples",
                                     "allocs_per_op", "bytes_per_op", "iters"])

    def test_suffix_strip(self):
        for line, want in [
            ("BenchmarkA/b-8 \t 10\t 5 ns/op", "A/b"),
            ("BenchmarkA/warm-sampled16 \t 10\t 5 ns/op", "A/warm-sampled16"),
            ("BenchmarkA/cold64-16 \t 10\t 5 ns/op", "A/cold64"),
            ("BenchmarkA \t 10\t 5 ns/op", "A"),
        ]:
            self.assertEqual(benchjson.ROW.match(line).group(1), want, line)


class ErrorTest(unittest.TestCase):
    def test_failed_run(self):
        code, stderr, _ = convert("pkg: sentinel/internal/core\n"
                                  "--- FAIL: BenchmarkScheduleBlock/nasa7\nFAIL\n")
        self.assertEqual(code, 1)
        self.assertIn("failed", stderr)

    def test_without_benchmem(self):
        code, stderr, _ = convert("pkg: sentinel/internal/core\n"
                                  "BenchmarkScheduleBlock/nasa7 \t 4000\t 290000 ns/op\n")
        self.assertEqual(code, 1)
        self.assertIn("-benchmem", stderr)

    def test_unknown_package(self):
        code, stderr, _ = convert("pkg: sentinel\n"
                                  "BenchmarkKernel/grep \t 10\t 5 ns/op\t 0 B/op\t 0 allocs/op\n")
        self.assertEqual(code, 1)
        self.assertIn("no BENCH file", stderr)

    def test_empty(self):
        code, _, files = convert("PASS\n")
        self.assertEqual((code, files), (1, {}))


if __name__ == "__main__":
    unittest.main()
