"""hub_cost times the pairs query cold on hub families, by default, under
degree 16 and with no deletion, and checks each value against networkx."""
import hub_cost
from focount.structures import gaifman_graph


def test_each_cell_prints_three_configurations_and_is_checked(capsys):
    assert hub_cost.main(["--sizes", "600", "--star", "100",
                          "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("cell | default | degree 16 | no deletion | value"
                        " | check")
    rows = {row[0]: row[1:] for row in (line.split(" | ")
                                        for line in lines[2:])}
    assert list(rows) == [f"{family}:{n}" for family, n, _ in
                          hub_cost.families([600], 100)]
    assert all(row[-1] == "ok" for row in rows.values())
    # the star deletes its hub by default; no deletion makes no step
    assert rows["star:100"][0].endswith("(1)")
    assert all(row[2].endswith("(0)") for row in rows.values())
    assert rows["hub-tree:1000"][0].endswith("(0)")
    assert not rows["hub-tree:1000"][1].endswith("(0)")


def test_the_probe_families_are_built_as_defined():
    tree = gaifman_graph(hub_cost.star_path(1000, 10))
    edges = sum(map(len, tree.adj.values())) // 2
    assert len(tree.vertices) == 10 * (1000 // 10 - 12) + 9 * 12
    assert edges == len(tree.vertices) - 1
    assert sorted(map(len, tree.adj.values()))[-10:] == [88] * 2 + [89] * 8
    grid = gaifman_graph(hub_cost.apex_grid(1000, 4))
    assert len(grid.vertices) == 31 * (1000 // 31) + 4
    assert all(0 < len(grid.adj[f"h{i}"]) < 60 for i in range(4))


def test_a_wrong_value_exits_one(monkeypatch, capsys):
    ground = hub_cost.localized_ground

    def off_by_one(structure, term, cfg):
        value, stats = ground(structure, term, cfg)
        return value + 1, stats

    monkeypatch.setattr(hub_cost, "localized_ground", off_by_one)
    assert hub_cost.main(["--sizes", "600", "--star", "50",
                          "--repeats", "1"]) == 1
    assert "WRONG" in capsys.readouterr().out
