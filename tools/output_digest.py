"""Digest of ddqsim's outputs over a fixed set of CLI commands.

Runs ``sim-shots``, ``analyze``, ``campaign``/``summarize`` and
``allan``/``psd`` (with ``--fit-out``, on two fixed frequency series) through
``ddqsim.cli.main`` only, the stable contract, in a temporary directory with
relative paths so manifests do not depend on where it runs. Prints one
sha256 per command group and a total over the groups. Two checkouts that
print the same total wrote the same bytes.

    python3 tools/output_digest.py              # ddqsim from ../src
    python3 tools/output_digest.py --src DIR    # ddqsim from another tree
    python3 tools/output_digest.py --expect HEX # exit 1 unless total is HEX

With ``--expect``, a total other than HEX exits 1 and names the command
groups whose digests differ from the ones recorded for HEX in ``RECORDED``.
A change that declares new output bytes adds its total there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

SEED = "7"
DELAYS = {"bitflip": "0,10,30,60", "hahn-echo": "0,10,25,40,70",
          "ramsey": "0:30:11"}
NOISE = {
    "white": [{"kind": "white", "amplitude": 3000.0,
               "coupling": "differential_Q"}],
    "colored": [{"kind": "one_over_f", "amplitude": 2e6,
                 "coupling": "differential_Q"},
                {"kind": "telegraph", "amplitude": 20e3,
                 "coupling": "differential_D", "switching_rate_hz": 2e4}],
    "quasistatic": [{"kind": "one_over_f", "amplitude": 1e6,
                     "coupling": "differential_D", "quasistatic": True},
                    {"kind": "telegraph", "amplitude": 10e3,
                     "coupling": "common", "w_D": 1.0, "w_Q": 1.4,
                     "switching_rate_hz": 1e3, "quasistatic": True}],
}
CAMPAIGN = {
    "devices": ["q1", "q2"], "experiments": ["bitflip", "hahn_echo", "ramsey"],
    "repetitions": 2, "seed": 11, "shots_per_point": 150,
    "shots_physical": 120, "physical_refs": "full", "bootstrap_resamples": 20,
    "noise": [{"kind": "white", "amplitude": 2000.0, "coupling": "common",
               "w_D": 1.0, "w_Q": 1.2},
              {"kind": "telegraph", "amplitude": 30e3,
               "coupling": "differential_D",
               "switching_rate_hz": 1.0 / 2000.0, "persistent": True}],
    "delays_us": {"bitflip": [0, 10, 20, 30, 60],
                  "hahn_echo": [0, 10, 20, 30, 60],
                  "ramsey": list(range(0, 45, 3)),
                  "phys_t1": [0, 20, 50, 100, 160],
                  "phys_echo": [0, 5, 10, 20, 40],
                  "phys_ramsey": list(range(0, 45, 3))},
}

# per-group digests of known totals, for naming the groups that differ
RECORDED = {
    "1661fdbc1c4c86e261c471fa410fdf3500963b4ca448f58a151752a04b3f290e": {
        "sim-shots":
            "af6512f6aa0591c471db7a18cfbaecb7dcd5e2a700bb593ad4d35ab3a165e8e9",
        "analyze":
            "528fe5bbb6b928303bf97b895298da2eecd858949411ae88d7977a6791241d64",
        "campaign":
            "33af0ff92987b154db6eff73c01526f308c46a33b7e4a9fb2293335a31796e45",
        "noise":
            "707d6cd62c044228d8590cbcd3d12174d5f6329f469f6c8ed245500d63fdf8b1",
    },
    "2c276d84dffec61598b1842ae538f32bc9631d46006f7a20520377f29a835855": {
        "sim-shots":
            "af6512f6aa0591c471db7a18cfbaecb7dcd5e2a700bb593ad4d35ab3a165e8e9",
        "analyze":
            "34410e0ca39f02cfac81535c60d60d8ce8d4857c898bf7e4efe9f4ac454ded3e",
        "campaign":
            "7e2126075390913df6c8c371f203a0fb0da1ce0c838e8f71f9ec644238083803",
        "noise":
            "cd93d1c6a49604572047600fc567ba7e89e6675dc99fb93ecc33dc2587795fee",
    },
    "677ba4c6979a9e0ae2b3307523f0d54bfcd055afdcfd3a29f2c6b4ce4dc9273a": {
        "sim-shots":
            "af6512f6aa0591c471db7a18cfbaecb7dcd5e2a700bb593ad4d35ab3a165e8e9",
        "analyze":
            "524ed46e1140bd9415365fb34e858d54d382b96e28ea34bb601d4a560747abcd",
        "campaign":
            "7e2126075390913df6c8c371f203a0fb0da1ce0c838e8f71f9ec644238083803",
        "noise":
            "cd93d1c6a49604572047600fc567ba7e89e6675dc99fb93ecc33dc2587795fee",
    },
    "26e6dc0bdb7049228335c1071d1170628bc377e363d5587f89319be83bf9c15c": {
        "sim-shots":
            "af6512f6aa0591c471db7a18cfbaecb7dcd5e2a700bb593ad4d35ab3a165e8e9",
        "analyze":
            "75e5c63e8417383b1aaad7d0b5270a4ceec9b41cfe21cc1573f0767c89952ada",
        "campaign":
            "8abb10f99c2f99d72e1c04d6bc1a2f0b06f9028a7f2cbf07a9ce299b6ee7657a",
        "noise":
            "cd93d1c6a49604572047600fc567ba7e89e6675dc99fb93ecc33dc2587795fee",
    },
    "1e993581b332ade55764970f50839f541b3e7567bac36be92a46df6b9b1cc347": {
        "sim-shots":
            "2d47bc76f6ecfd19c08e152d2685ee40a68550be0b4a0d6a768f2e1377d8127d",
        "analyze":
            "b1491db3407e20b06b60d6b283e0c843fedeb5cbad9510e9b3a8674017a45617",
        "campaign":
            "22079efaa3c50434d105970de37247c03b7527742e2428efeea88807e6114f1a",
        "noise":
            "cd93d1c6a49604572047600fc567ba7e89e6675dc99fb93ecc33dc2587795fee",
    },
    "184fb80231a13c08704d8c216e45fcfd6637495889de4295774bf6cdfcb6125a": {
        "sim-shots":
            "2d47bc76f6ecfd19c08e152d2685ee40a68550be0b4a0d6a768f2e1377d8127d",
        "analyze":
            "b1491db3407e20b06b60d6b283e0c843fedeb5cbad9510e9b3a8674017a45617",
        "campaign":
            "22079efaa3c50434d105970de37247c03b7527742e2428efeea88807e6114f1a",
        "noise":
            "71e1cd21b1f0b1f1cceb45d47f2bfed98707c458ac6db8da1694db8fd0e31773",
    },
    "f1af64d150bab1bd0e5d79a1260f523799448d45e8bfb42b67d5e8d7bb427de3": {
        "sim-shots":
            "2d47bc76f6ecfd19c08e152d2685ee40a68550be0b4a0d6a768f2e1377d8127d",
        "analyze":
            "3d6f6624f1c16c21add2440a308876e9fb108fbc430afadb72048b16bb111ace",
        "campaign":
            "f3754e5da1c2318a94b98d2bd4e52381b6e66f8c2083ea515c85e4af14208d31",
        "noise":
            "5fe27996f1c682a5f85cf6594285935baf5844dcee30608c9da1b52b70bd83b8",
    },
    "836fd561fb0a4d92f0c4b87b7848d54d45e1d991ad2c8f926ea90ac8f4638136": {
        "sim-shots":
            "d148f6b682ab3025d07bc512f7e5abf6294b81301ca1f44aa11d44093920ec85",
        "analyze":
            "293d0030840824e369841910a8a76c05495070753c7a52f5df9671fdb492e7fe",
        "campaign":
            "967ccd61d57d0755a3350355746115bd1121849865d0f8cce2014b755af4d735",
        "noise":
            "5fe27996f1c682a5f85cf6594285935baf5844dcee30608c9da1b52b70bd83b8",
    },
    "2c019d3763c4c3e44d93cebf8dedbafcd3143377e2e7a0e1036c7927ac4ac493": {
        "sim-shots":
            "d148f6b682ab3025d07bc512f7e5abf6294b81301ca1f44aa11d44093920ec85",
        "analyze":
            "293d0030840824e369841910a8a76c05495070753c7a52f5df9671fdb492e7fe",
        "campaign":
            "967ccd61d57d0755a3350355746115bd1121849865d0f8cce2014b755af4d735",
        "noise":
            "80ff5f4193c79bbe96a98fd1cec87ddddd0dc5b1e9fb6ac8ab96c15fda1edef2",
    },
}


def sim_shots_commands() -> list:
    argvs = []
    for exp, delays in DELAYS.items():
        for noise in NOISE:
            for threads in ("1", "2"):
                stem = f"{exp}_{noise}_t{threads}"
                argvs.append(["sim-shots", "--config", "q1", "--experiment",
                              exp, "--shots", "200", "--seed", SEED,
                              "--delays", delays, "--noise", f"{noise}.json",
                              "--threads", threads, "--dump-trajectories",
                              "--out", f"{stem}.csv",
                              "--trace-out", f"{stem}.trace.csv"])
    argvs.append(["sim-shots", "--config", "q2", "--experiment", "ramsey",
                  "--shots", "200", "--seed", SEED, "--delays", "0:30:11",
                  "--noise", "colored.json", "--noise-dt-us", "0.37",
                  "--threads", "1", "--out", "ramsey_dt.csv",
                  "--trace-out", "ramsey_dt.trace.csv"])
    return argvs


def analyze_commands() -> list:
    # output stem -> (kind, experiment of the trace file); erasure also
    # runs on the two-init bit-flip file, whose |00> counts it pools
    runs = {"bitflip": ("bitflip", "bitflip"),
            "hahn-echo": ("hahn-echo", "hahn-echo"),
            "ramsey": ("ramsey", "ramsey"),
            "erasure": ("erasure", "hahn-echo"),
            "erasure_bitflip": ("erasure", "bitflip")}
    return [["analyze", "--trace", f"{exp}_white_t1.trace.csv", "--kind", kind,
             "--bootstrap", "40", "--seed", SEED, "--emit-plot-data",
             "--out", f"fit_{stem}.json"]
            for stem, (kind, exp) in runs.items()]


def campaign_commands() -> list:
    # one thread runs each trace in one engine call, two spread its points
    # over a pool; both archives are hashed
    return [["campaign", "--config", "campaign.json", "--out", "archive",
             "--threads", "2"],
            ["campaign", "--config", "campaign.json", "--out", "archive_t1",
             "--threads", "1"],
            ["summarize", "--in", "archive/metrics.csv",
             "--out", "summary.json"]]


def frequency_csv(seed: int, walk_hz: float) -> str:
    """A frequency series of 50 Hz white noise on a random walk of
    ``walk_hz`` steps, 100 s apart, drawn from Python's own generator seeded
    with ``seed`` and written with repr floats."""
    rng = random.Random(seed)
    lines, walk = ["timestamp_s,delta_f_hz,source"], 0.0
    for i in range(1024):
        walk += rng.gauss(0.0, walk_hz)
        lines.append(f"{i * 100.0!r},{walk + rng.gauss(0.0, 50.0)!r},logical")
    return "\n".join(lines) + "\n"


def noise_commands() -> list:
    return [["allan", "--in", "freq.csv", "--out", "allan.csv",
             "--fit-out", "allan_fit.json"],
            ["allan", "--in", "freq.csv", "--out", "allan6.csv",
             "--max-octaves", "6", "--fit-out", "allan6_fit.json"],
            ["psd", "--in", "freq.csv", "--out", "psd.csv",
             "--fit-out", "psd_fit.json"],
            ["psd", "--in", "freq.csv", "--out", "psd256.csv",
             "--segment-length", "256", "--fit-out", "psd256_fit.json"],
            # white only: both fits clamp the 1/f amplitude A at 0
            ["allan", "--in", "white.csv", "--out", "allan_white.csv",
             "--fit-out", "allan_white_fit.json"],
            ["psd", "--in", "white.csv", "--out", "psd_white.csv",
             "--fit-out", "psd_white_fit.json"]]


GROUPS = (("sim-shots", sim_shots_commands), ("analyze", analyze_commands),
          ("campaign", campaign_commands), ("noise", noise_commands))


def tree_files(root: str) -> list:
    out = []
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        out += [os.path.relpath(os.path.join(dirpath, f), root)
                for f in sorted(files)]
    return out


def run_group(main, argvs, seen: set) -> tuple:
    """Run the commands; hash their exit codes, stdout and new files.

    Returns the digest and the number of commands that exited non-zero.
    """
    h = hashlib.sha256()
    failed = 0
    for argv in argvs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        failed += code != 0
        h.update(f"{' '.join(argv)}\0{code}\0{stdout.getvalue()}\0".encode())
    for path in tree_files("."):
        if path not in seen:
            seen.add(path)
            with open(path, "rb") as fh:
                h.update(f"{path}\0".encode() + fh.read() + b"\0")
    return h.hexdigest(), failed


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory holding the ddqsim package")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the total is HEX")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from ddqsim.cli import main as ddqsim_main

    total, digests = hashlib.sha256(), {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, spec in NOISE.items():
                with open(f"{name}.json", "w", encoding="utf-8") as fh:
                    json.dump(spec, fh)
            with open("campaign.json", "w", encoding="utf-8") as fh:
                json.dump(CAMPAIGN, fh)
            for name, seed, walk_hz in (("freq.csv", int(SEED), 5.0),
                                        ("white.csv", 11, 0.0)):
                with open(name, "w", encoding="utf-8", newline="") as fh:
                    fh.write(frequency_csv(seed, walk_hz))
            seen = set(tree_files("."))
            for name, commands in GROUPS:
                argvs = commands()
                digest, failed = run_group(ddqsim_main, argvs, seen)
                total.update(digest.encode())
                digests[name] = digest
                print(f"{name:<10} {digest}  ({len(argvs)} commands, "
                      f"{failed} non-zero exits)")
        finally:
            os.chdir(cwd)
    print(f"{'total':<10} {total.hexdigest()}")
    if args.expect is None or total.hexdigest() == args.expect:
        return 0
    recorded = RECORDED.get(args.expect)
    if recorded is None:
        print(f"total differs from {args.expect}, which has no recorded "
              f"group digests")
    else:
        differ = [name for name in digests if digests[name] != recorded[name]]
        print(f"total differs from {args.expect} in: {', '.join(differ)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
