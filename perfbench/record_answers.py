"""Recompute answers.json, the recorded answers of the operations too large
to check with naive.Evaluator on every run.  Their structures have fixed
shapes, and the benchmark seed only relabels elements, so one answer holds
for every seed.  Takes several minutes.  Run from the root of the repository:

    PYTHONPATH=src python3 perfbench/record_answers.py
"""
import json

from focount import logic
from focount.naive import Evaluator

import workloads


def naive(structure, text):
    return Evaluator(structure).evaluate(logic.parse(text, structure.signature))


def main() -> None:
    answers = {"pairs": {}, "query": {}, "removal": {}}
    for name, s in workloads.pairs_structures().items():
        answers["pairs"][name] = naive(s, workloads.PAIRS_QUERY)
    for name, s in workloads.query_structures().items():
        answers["query"][name] = naive(s, workloads.QUERY)
    answers["removal"][workloads.HUB_TREE] = naive(workloads.hub_tree(),
                                                   workloads.PAIRS_QUERY)
    workloads.ANSWERS.write_text(json.dumps(answers, indent=1) + "\n")


if __name__ == "__main__":
    main()
