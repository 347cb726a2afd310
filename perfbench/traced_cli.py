"""Run the slitsim CLI with spans around the program's public calls.

    python3 perfbench/traced_cli.py SPANS.json <slitsim arguments...>

Writes the spans to SPANS.json (worker spans go to SPANS-workers/ first)
and exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

import spans

out = Path(sys.argv[1])
spill = out.with_name(out.stem + "-workers")
spill.mkdir(parents=True, exist_ok=True)
tracer = spans.Tracer(spill_dir=spill)
with tracer.span("cli.import"):
    import slitsim.cli
with tracer.patched(spans.program_targets()):
    code = slitsim.cli.main(sys.argv[2:])
out.write_text(json.dumps(tracer.all_spans()))
sys.exit(code)
