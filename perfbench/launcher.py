"""Server process of the benchmark: build (or recover) a facade and serve it.

Run by ``run.py``, never by hand::

    python3 perfbench/launcher.py --workdir W [--data-dir D] --port-file F \
        [--recover] [--trace SPANS.npz] [--inject-wrong N]

It reads the generated points and the serving spec from ``W``, serves
``FairNN.from_spec(spec).serve(points, data_dir=D, ...)`` (in RAM without
``--data-dir``; ``FairNNServer.from_data_dir(D)`` with ``--recover``) on an
ephemeral port
and writes the port to ``F`` once it is ready.  ``SIGTERM`` stops it
cleanly.  With ``--trace`` the layer entry points are wrapped before
anything is built (see ``tracer.py``); the spans are written on exit and on
``SIGUSR1``.  ``--inject-wrong N`` corrupts every ``N``-th answer, so the
harness tests can check that the oracle counts it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _inject_wrong_answers(every):
    """Make every *every*-th served answer name a slot that does not exist."""
    from repro.engine.requests import QueryResponse

    original = QueryResponse.to_dict
    counter = {"n": 0}
    lock = threading.Lock()

    def corrupted(self):
        payload = original(self)
        with lock:
            counter["n"] += 1
            hit = counter["n"] % every == 0
        if hit and payload["indices"]:
            payload["indices"][0] = payload["index"] = 10**9
        return payload

    QueryResponse.to_dict = corrupted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--data-dir")
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--recover", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--inject-wrong", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.inject_wrong:
        _inject_wrong_answers(args.inject_wrong)

    import numpy as np

    from repro import FairNN, FairNNServer
    from workloads import decode_inputs

    config = json.loads((Path(args.workdir) / "inputs.json").read_text())
    if args.recover:
        server = FairNNServer.from_data_dir(args.data_dir)
    else:
        with np.load(Path(args.workdir) / "inputs.npz") as arrays:
            points = decode_inputs(config["kind"], arrays)
        facade = FairNN.from_spec(config["spec"]).serve(
            points, data_dir=args.data_dir, **config["serve"]
        )
        server = FairNNServer(facade)

    def dump_spans(*_):
        if tracer is not None:
            tracer.dump(args.trace + ".tmp.npz")
            os.replace(args.trace + ".tmp.npz", args.trace)

    def stop(*_):
        threading.Thread(target=server.stop, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGUSR1, dump_spans)
    port_file = Path(args.port_file)
    port_file.with_suffix(".tmp").write_text(str(server.port))
    os.replace(port_file.with_suffix(".tmp"), port_file)
    try:
        server.serve_forever()
    finally:
        with server.handle.acquire() as facade:
            facade.close()
        dump_spans()


if __name__ == "__main__":
    main()
