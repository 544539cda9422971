"""Set-up probe: import warpcurv.cli, then parse the scenarios given as a
JSON list of texts on stdin (parse_scenario, build_spec and
build_torsion_field), print "ready" and exit.  run.py times this from the
spawn of the interpreter to the "ready" line."""

import json
import sys

from warpcurv import cli

for text in json.load(sys.stdin):
    cfg = cli.parse_scenario(text)
    if cfg.fibers:
        cli.build_torsion_field(cfg, cli.build_spec(cfg))
sys.stdout.write("ready\n")
sys.stdout.flush()
