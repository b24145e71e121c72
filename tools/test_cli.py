#!/usr/bin/env python3
"""End-to-end checks of cohmeleon_run's flags.

Each run/train/compare flag is the scenario key of the same name, each
serve flag the serve key, and the campaign --max-retries/--fault flags
the campaign keys. The spec file is read first and the flags are laid
over it, wherever they sit on the command line. This suite pins that
contract from the outside:

  * flags and the equivalent spec file give the same output;
  * flags written before --scenario/--spec still apply;
  * a bad flag value exits 2 with one stderr line naming the flag,
    for the same values a spec file rejects;
  * campaign group headers name the strategy keys a group sweeps;
  * the retired Q-values-only flags print usage.

usage: test_cli.py PATH/TO/cohmeleon_run
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

BIN = None


def cli(*args, cwd):
    return subprocess.run([BIN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


class CliTestCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def ok(self, *args):
        res = cli(*args, cwd=self.dir)
        self.assertEqual(res.returncode, 0, f"{args}: {res.stderr}")
        return res.stdout

    def write(self, name, text):
        (self.dir / name).write_text(text)


class FlagsAreSpecKeys(CliTestCase):
    def test_run_flags_match_scenario_file(self):
        flags = self.ok("run", "--soc", "soc1", "--policy", "manual",
                        "--train", "1", "--seed", "5",
                        "--disable-modes", "none", "--exact-attribution",
                        "--stats")
        self.write("f.scenario",
                   "soc = soc1\npolicy = manual\ntrain = 1\nseed = 5\n"
                   "disable-modes = none\nattribution = exact\n"
                   "stats = true\n")
        self.assertEqual(self.ok("run", "--scenario", "f.scenario"),
                         flags)

        # The file says seed = 3; the flag wins on either side.
        self.write("g.scenario", "soc = soc1\npolicy = manual\nseed = 3\n"
                   "attribution = exact\nstats = true\n")
        self.assertNotEqual(self.ok("run", "--scenario", "g.scenario"),
                            flags)
        for args in (("--seed", "5", "--scenario", "g.scenario"),
                     ("--scenario", "g.scenario", "--seed", "5")):
            self.assertEqual(self.ok("run", *args), flags, args)

    def test_serve_flags_match_serve_file(self):
        keys = ["soc", "soc1", "swap-interval", "2", "train", "1",
                "shards", "1", "tenants", "random,random",
                "tenant-weights", "2,1", "seed", "5"]
        pairs = list(zip(keys[::2], keys[1::2]))
        flags = [a for k, v in pairs for a in (f"--{k}", v)]
        out = self.ok("serve", "--requests", "2", *flags,
                      "--decision-log", "flags.log")
        self.assertIn("serving 2 request(s)", out)
        want = (self.dir / "flags.log").read_bytes()

        # The file asks for 4 requests; --requests 2 wins whether it
        # comes before or after --spec.
        self.write("s.serve", "requests = 4\n" +
                   "".join(f"{k} = {v}\n" for k, v in pairs))
        for name, args in (("before.log", ("--requests", "2", "--spec",
                                           "s.serve")),
                           ("after.log", ("--spec", "s.serve",
                                          "--requests", "2"))):
            out = self.ok("serve", *args, "--decision-log", name)
            self.assertIn("serving 2 request(s)", out)
            self.assertEqual((self.dir / name).read_bytes(), want, name)


class CampaignPrintout(CliTestCase):
    def test_group_headers_name_the_swept_model(self):
        self.write("m.campaign",
                   "campaign = model-axis\n"
                   "baseline = fixed-non-coh-dma\n"
                   "[scenario]\nsoc = soc1\ntrain = 1\n"
                   "app-phases = 1\napp-max-threads = 2\n"
                   "app-max-loops = 1\n"
                   "[axes]\npolicy = fixed-non-coh-dma, cohmeleon\n"
                   "model = tabular, perceptron:tables=2,bits=4\n")
        out = self.ok("campaign", "m.campaign", "-o", "m.json")
        headers = [l for l in out.splitlines()
                   if l.startswith("--- group")]
        self.assertEqual(len(headers), 2, out)
        self.assertNotEqual(headers[0][len("--- group 0"):],
                            headers[1][len("--- group 1"):])
        self.assertIn("model perceptron:tables=2,bits=4", headers[1])


class BadFlagValues(CliTestCase):
    REJECTED = [
        (("run", "--shards", "5000"), "--shards"),
        (("run", "--train", "1000001"), "--train"),
        (("run", "--disable-modes", "non-coh-dma"), "--disable-modes"),
        (("run", "--seed", "-1"), "--seed"),
        (("train", "--shards", "5000", "-o", "m.ckpt"), "--shards"),
        (("compare", "--soc", "nope"), "--soc"),
        (("serve", "--arrival-rate", "2e9"), "--arrival-rate"),
        (("serve", "--requests", "100000001"), "--requests"),
        (("serve", "--swap-interval", "100000001"), "--swap-interval"),
        (("serve", "--train", "100001"), "--train"),
        (("serve", "--shards", "100001"), "--shards"),
        (("serve", "--tenant-weights", "1,inf"), "--tenant-weights"),
        (("campaign", "smoke", "--max-retries", "2000"),
         "--max-retries"),
        (("campaign", "smoke", "--fault", "explode"), "--fault"),
    ]

    def test_each_rejection_is_one_line_naming_the_flag(self):
        for args, flag in self.REJECTED:
            with self.subTest(args=args):
                res = cli(*args, cwd=self.dir)
                self.assertEqual(res.returncode, 2, res.stderr)
                lines = res.stderr.splitlines()
                self.assertEqual(len(lines), 1, res.stderr)
                self.assertIn(flag, lines[0])

    def test_retired_qtable_flags_print_usage(self):
        for flag in ("--save-qtable", "--load-qtable"):
            with self.subTest(flag=flag):
                res = cli("run", flag, "p.q", cwd=self.dir)
                self.assertEqual(res.returncode, 2)
                self.assertTrue(res.stdout.startswith("usage:"))
                self.assertFalse((self.dir / "p.q").exists())


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    BIN = str(pathlib.Path(sys.argv.pop(1)).resolve())
    unittest.main()
