"""Unit tests for benchmark/run.py.

    python3 -m unittest discover -s benchmark -p test_run.py

`run.py --smoke` runs them too, after building; the manifest tests skip when
cksumlab has not been built yet.
"""

import os
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

REPORT = {"transport": "TCP", "fast_path_fraction": 0.99,
          **{k: 7 for k in run.DIGEST_KEYS},
          "remaining_by_k": [1, 2, 3], "missed_by_k": [0, 1, 0]}


class ManifestTest(unittest.TestCase):
    def setUp(self):
        if not run.CKSUMLAB.is_file():
            self.skipTest("cksumlab is not built")

    def test_seed_zero_is_the_profile_list_byte_for_byte(self):
        for scale in (0.2, 1):
            want = subprocess.run([str(run.CKSUMLAB), "manifest", "nsc05", f"{scale:g}"],
                                  check=True, capture_output=True).stdout
            self.assertEqual(run.make_manifest(scale, 0).encode(), want)

    def test_seed_n_is_deterministic_and_keeps_the_work(self):
        base = run.make_manifest(1, 0).splitlines()
        seven = run.make_manifest(1, 7)
        self.assertEqual(seven, run.make_manifest(1, 7))
        self.assertNotEqual(seven, run.make_manifest(1, 8))
        lines = seven.splitlines()
        self.assertEqual(len(lines), len(base))
        for b, s in zip(base, lines):
            (bk, bs, bz), (sk, ss, sz) = b.split(" "), s.split(" ")
            self.assertEqual((bk, bz), (sk, sz))
            self.assertNotEqual(bs, ss)


class SeedTest(unittest.TestCase):
    def test_splitmix64_matches_the_reference_sequence(self):
        # First output of splitmix64 seeded with 0.
        self.assertEqual(run.splitmix64(0, 0), 0xE220A8397B1DCDAF)

    def test_reseed_zero_is_identity(self):
        text = "text 0000000000000001 100\nrandom 00000000000000ff 7\n"
        self.assertEqual(run.reseed(text, 0), text)
        self.assertEqual(run.reseed(text, 3), run.reseed(text, 3))


class StatsTest(unittest.TestCase):
    def test_odd_count(self):
        s = run.summarize([5, 1, 4, 2, 3])
        self.assertEqual((s["value"], s["q1"], s["q3"], s["n"]), (3, 1.5, 4.5, 5))
        self.assertEqual(s["samples"], [5, 1, 4, 2, 3])

    def test_even_count(self):
        s = run.summarize([4.0, 1.0, 3.0, 2.0])
        self.assertEqual((s["value"], s["q1"], s["q3"]), (2.5, 1.25, 3.75))

    def test_one_sample(self):
        s = run.summarize([2.0])
        self.assertEqual((s["value"], s["q1"], s["q3"], s["n"]), (2.0, 2.0, 2.0, 1))

    def test_calibrated_is_the_median_of_paired_ratios(self):
        thr, lat = run.CAL_REF_S
        times = [1.0, 3.0, 1.1]
        cals = [(thr * 2, lat), (thr, lat * 3), (thr * 10, lat * 10)]
        s = run.calibrated(times, cals, 0.5)   # slowdowns 1.5, 2, 10
        self.assertAlmostEqual(s["value"], 1.0 / 1.5)  # of 1/1.5, 3/2, 1.1/10
        self.assertEqual(s["median"], 1.1)
        self.assertEqual(s["samples"], times)
        self.assertEqual(s["calib_samples"], [list(c) for c in cals])

    def test_dfs_share_weighs_the_two_loops(self):
        thr, lat = run.CAL_REF_S
        cal = (thr * 2, lat)
        self.assertAlmostEqual(run.slowdown(cal, 1.0), 2.0)
        self.assertAlmostEqual(run.slowdown(cal, 0.0), 1.0)
        self.assertAlmostEqual(run.slowdown(cal, 0.25), 1.25)

    def test_calibrated_cancels_a_slower_host(self):
        times = [1.0, 1.2, 1.1, 1.4]
        cals = [(0.02, 0.01), (0.03, 0.012), (0.025, 0.02), (0.021, 0.011)]
        slower = [1.3, 1.7, 1.1, 2.0]  # each pair slowed alike, by its own factor
        quiet = run.calibrated(times, cals, 0.35)
        noisy = run.calibrated([t * f for t, f in zip(times, slower)],
                               [(a * f, b * f) for (a, b), f in zip(cals, slower)], 0.35)
        self.assertAlmostEqual(quiet["value"], noisy["value"])

    def test_calibrated_needs_one_calibration_per_time(self):
        with self.assertRaises(ValueError):
            run.calibrated([1.0, 2.0], [(1.0, 1.0)], 0.5)

    def test_agree_is_directional(self):
        self.assertTrue(run.agree(1.0, 1.09, "lower", 0.1))
        self.assertFalse(run.agree(1.0, 1.11, "lower", 0.1))
        self.assertTrue(run.agree(1.0, 0.5, "lower", 0.1))
        self.assertFalse(run.agree(1.0, 0.89, "higher", 0.1))


class DigestTest(unittest.TestCase):
    def test_ignores_key_order_and_unknown_keys(self):
        shuffled = dict(reversed(list(REPORT.items())))
        extra = dict(REPORT, exemplars=[[1, 2, 3]], model_rate=0.5)
        self.assertEqual(run.digest(shuffled), run.digest(REPORT))
        self.assertEqual(run.digest(extra), run.digest(REPORT))

    def test_sees_every_counter(self):
        for key in run.DIGEST_KEYS:
            changed = dict(REPORT)
            changed[key] = [9] if isinstance(REPORT[key], list) else 8
            self.assertNotEqual(run.digest(changed), run.digest(REPORT), key)

    def test_missing_counter_is_an_error(self):
        with self.assertRaises(KeyError):
            run.digest({k: v for k, v in REPORT.items() if k != "missed_crc"})


PRINTER = f"import json; print(json.dumps({REPORT!r}))"


class RepTest(unittest.TestCase):
    def setUp(self):
        if not run.SPAWN.is_file():
            self.skipTest("bench_spawn is not built")
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def rep(self, code, timeout=run.REP_TIMEOUT_S):
        return run.run_rep([sys.executable, "-c", code], self.tmp.name, timeout)

    def test_cost_is_the_commands_own(self):
        ballast = b"x" * (256 << 20)  # resident in this process, not the command
        rep = self.rep(PRINTER + "; sum(range(10**6))")
        del ballast
        self.assertIsNone(rep.failure)
        self.assertLess(rep.rss_mib, 128)
        self.assertGreater(rep.cpu_s, 0)
        self.assertGreaterEqual(rep.wall_s, rep.cpu_s * 0.5)

    def test_failed_frac_counts_exit_timeout_and_mismatch(self):
        printer = PRINTER
        good = self.rep(printer)
        self.assertIsNone(good.failure)
        self.assertEqual(run.judge(good, good.output, [("pinned", run.digest(REPORT))]),
                         run.digest(REPORT))
        self.assertIsNone(good.failure)

        exited = self.rep("import sys; sys.exit(3)")
        self.assertEqual(exited.failure, "exit code 3")

        t0 = time.perf_counter()
        slow = self.rep("import time; time.sleep(30)", timeout=0.3)
        self.assertLess(time.perf_counter() - t0, 10)
        self.assertIn("timeout", slow.failure)

        wrong = self.rep(printer)
        other = run.digest(dict(REPORT, missed_crc=1))
        run.judge(wrong, wrong.output, [("pinned", other)])
        self.assertIn("digest", wrong.failure)

        self.assertEqual(run.failed_frac([good, exited, slow, wrong]), 0.75)

    def test_timeout_stops_the_whole_process_group(self):
        slow = self.rep("import subprocess, time\n"
                        "p = subprocess.Popen(['sleep', '30'])\n"
                        "open('grandchild.pid', 'w').write(str(p.pid))\n"
                        "time.sleep(30)", timeout=0.5)
        self.assertIn("timeout", slow.failure)
        grandchild = int((Path(self.tmp.name) / "grandchild.pid").read_text())
        with self.assertRaises(ProcessLookupError):
            os.kill(grandchild, 0)

    def test_unreadable_output_fails(self):
        self.assertIn("unreadable", self.rep("print('not json')").failure)
        rep = self.rep("print('{}')")
        run.judge(rep, rep.output, [])
        self.assertIn("lacks counter", rep.failure)


if __name__ == "__main__":
    unittest.main()
