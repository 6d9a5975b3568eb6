"""Write the benchmark's adversarial machines and the q0-final verdict table.

    python3 bench/gen.py [--seed N]

The two one-state machines go to ``bench/machines/``. The word pool of the
``branching`` workload's accepting machine goes to
``bench/data/q0final-verdicts.json`` with each word's verdict. A verdict is
decided by ``member`` and kept only if the marked-tape machine, run on the
reversed automaton with the mirrored word, agrees: that is an independent
implementation, and too slow to run on every check. Where the marked-tape
search gives up (a few words exceed its expansion budget), ``member`` on the
reversed automaton with the mirrored word, which runs the engine's other
sweep direction, is the cross-check instead; the table says which was used.
"""

from __future__ import annotations

import argparse
import json
import random

import workloads as wl


def format_table(table: dict) -> str:
    """JSON with one verdict per line."""
    head = json.dumps({k: v for k, v in table.items() if k != "verdicts"}, indent=1)[:-2]
    rows = ",\n  ".join(json.dumps(row) for row in table["verdicts"])
    return f'{head},\n "verdicts": [\n  {rows}\n ]\n}}\n'


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20261017)
    args = parser.parse_args()
    jumpfa = wl.import_jumpfa()

    wl.MACHINES.mkdir(exist_ok=True)
    wl.NOFINAL.write_text(wl.onestate_machine(final=False), "utf-8")
    wl.Q0FINAL.write_text(wl.onestate_machine(final=True), "utf-8")

    aut = jumpfa.parse_automaton(wl.Q0FINAL.read_text("utf-8"))
    mirror = jumpfa.reverse_automaton(aut)
    rng = random.Random(args.seed)
    verdicts: dict[str, tuple[bool, str]] = {}
    while len(verdicts) < wl.POOL_WORDS:
        w = "".join(rng.choice("ab") for _ in range(rng.randint(32, 48)))
        if w in verdicts:
            continue
        accepted = jumpfa.member(aut, w)[0]
        try:
            checked, how = jumpfa.lba_run(mirror, w[::-1])[0], "lba_run-mirror"
        except jumpfa.SearchLimitError:
            checked, how = jumpfa.member(mirror, w[::-1])[0], "member-mirror"
        if checked != accepted:
            raise SystemExit(f"error: {how} disagrees with member on {w}")
        verdicts[w] = (accepted, how)
    wl.VERDICT_TABLE.parent.mkdir(exist_ok=True)
    table = {
        "machine": wl.Q0FINAL.name,
        "seed": args.seed,
        "cross_check": "lba_run (else member) on reverse_automaton(M) with w[::-1]",
        "verdicts": [[w, v, how] for w, (v, how) in sorted(verdicts.items())],
    }
    wl.VERDICT_TABLE.write_text(format_table(table), "utf-8")
    accepted = sum(v for v, _ in verdicts.values())
    print(f"{len(verdicts)} words, {accepted} accepted, {len(verdicts) - accepted} rejected")


if __name__ == "__main__":
    main()
