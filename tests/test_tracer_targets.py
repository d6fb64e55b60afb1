"""The benchmark tracer wraps satsync names that must keep existing.

perfbench/tracer.py patches each (owner, attribute) pair it lists; a name
that is renamed or deleted here makes a traced benchmark run fail with a
KeyError.  The tracer source is read and executed, never imported as a
package, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

import satsync

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    targets = tracer._targets(satsync)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert missing == []
