"""Network serving demo: one engine, many TCP clients, identical answers.

This example walks the network serving tier end to end:

1. an :class:`~repro.Engine` (sharded, two workers when ``fork`` is
   available) is wrapped in an :class:`~repro.EngineServer` listening on a
   loopback TCP port;
2. a :class:`~repro.RemoteEngine` connects over real TCP, compiles the
   standing query (the canonical payload travels — never a pickle — and
   the digest is verified end to end), adds documents, and serves
   ``stream()`` / ``page()`` / ``apply_edits()`` through the exact same
   API a local engine exposes;
3. every answer sequence is **asserted byte-identical** to an in-process
   oracle engine replaying the same workload — the wire tier must be
   observationally invisible;
4. a second concurrent client shares the same server, and the credit
   window + round-trip counters are printed from both sides.

Run with:  PYTHONPATH=src python examples/network_serving_demo.py
"""

from __future__ import annotations

import json
import multiprocessing

from repro import Engine, EngineServer, RemoteEngine
from repro.automata.queries import select_labeled
from repro.engine.sharding import STREAM_CREDIT
from repro.trees.edits import Relabel
from repro.trees.generators import random_tree

LABELS = ("a", "b", "c")


def ordered(answers):
    """Order-preserving canonical text of an answer sequence."""
    return json.dumps(
        [sorted([str(var), pos] for var, pos in answer) for answer in answers],
        sort_keys=True,
    )


def main() -> None:
    workers = 2 if "fork" in multiprocessing.get_all_start_methods() else 0
    query = select_labeled("a")
    trees = [random_tree(60, LABELS, seed=seed) for seed in (1, 2, 3)]

    with Engine(workers=workers, page_size=5) as engine:
        server = EngineServer(engine).start()
        host, port = server.address
        print(f"serving Engine(workers={workers}) on tcp://{host}:{port}")
        try:
            with Engine(page_size=5) as oracle_engine, RemoteEngine(
                server.address
            ) as remote:
                oracle_docs = [
                    oracle_engine.add_tree(tree.copy(), query) for tree in trees
                ]
                remote_docs = [remote.add_tree(tree.copy(), query) for tree in trees]

                # -- streams: byte-identical answers over the wire
                for remote_doc, oracle_doc in zip(remote_docs, oracle_docs):
                    over_tcp = ordered(remote_doc.stream())
                    in_process = ordered(oracle_doc.stream())
                    assert over_tcp == in_process, "TCP stream diverged from oracle"
                print(
                    f"streams: {sum(d.count() for d in remote_docs)} answers "
                    "over TCP, byte-identical to the in-process oracle"
                )

                # -- pages: cursor resume works identically
                remote_page = remote_docs[0].page()
                oracle_page = oracle_docs[0].page()
                while True:
                    assert ordered(remote_page.answers) == ordered(oracle_page.answers)
                    assert remote_page.exhausted == oracle_page.exhausted
                    if remote_page.exhausted:
                        break
                    remote_page = remote_docs[0].page(cursor=remote_page)
                    oracle_page = oracle_docs[0].page(cursor=oracle_page)
                print("pages: cursor pagination identical over TCP")

                # -- edits: reports and post-edit answers match
                edit = [Relabel(1, "a")]
                remote_report = remote_docs[1].apply_edits(list(edit))
                oracle_report = oracle_docs[1].apply_edits(list(edit))
                assert remote_report.epoch == oracle_report.epoch
                assert ordered(remote_docs[1].stream()) == ordered(
                    oracle_docs[1].stream()
                )
                print(f"edits: epoch {remote_report.epoch} applied through the wire")

                # -- a second concurrent client on the same server
                with RemoteEngine(server.address) as second:
                    assert second.ping() == "pong"
                    doc = second.add_tree(trees[0].copy(), query)
                    assert ordered(doc.stream()) == ordered(oracle_docs[0].stream())
                print("second client: served concurrently, same answers")

                net = remote.net_stats()
                print(
                    f"client transport: window={STREAM_CREDIT}, chunks={net['chunks']}, "
                    f"round_trips={net['round_trips']}"
                )
                streaming = engine.stats().get("streaming")
                if streaming:
                    print(
                        f"server shard streaming: chunks={streaming['chunks']}, "
                        f"round_trips={streaming['round_trips']}, "
                        f"window={STREAM_CREDIT}"
                    )
        finally:
            server.stop()
    print("network serving demo OK")


if __name__ == "__main__":
    main()
