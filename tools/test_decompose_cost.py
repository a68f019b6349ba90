"""decompose_cost times one whole decomposition per fresh parse."""
import decompose_cost


def test_every_timed_call_gets_a_fresh_parse(monkeypatch):
    seen, made = [], []
    decompose = decompose_cost.cl_decompose

    def recording(expr, sig):
        seen.append(expr)
        made.append(decompose(expr, sig))
        return made[-1]

    monkeypatch.setattr(decompose_cost, "cl_decompose", recording)
    costs = decompose_cost.cold_costs(seeds=range(3), repeat=2)
    assert sorted(costs) == [0, 1, 2]
    assert all(seconds > 0 for seconds in costs.values())
    assert len(seen) == 6 and len({id(e) for e in seen}) == 6
    assert seen[0] == seen[3] and seen[0] is not seen[3]
    # the timed part builds every symbol's cl-terms (seed 1 has three)
    symbols = [sym for decomp in made for layer in decomp.layers
               for sym in layer.symbols]
    assert symbols and all(sym.decomposed for sym in symbols)


def test_the_report_lists_each_corpus_expression_and_the_total(capsys):
    assert decompose_cost.main(["--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 16 + 1
    rows = [line.split() for line in lines[1:-1]]
    assert [int(seed) for seed, _ in rows] == list(range(16))
    total = lines[-1].split()
    assert total[0] == "total"
    assert abs(float(total[1]) - sum(float(ms) for _, ms in rows)) < 0.01
