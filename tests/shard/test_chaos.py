"""Whole-shard crash campaign: cell checks and worker invariance."""

import json

from repro.shard import ShardConfig, WorkloadSpec
from repro.shard.chaos import shard_crash_campaign

CONFIG = ShardConfig(shards=3, nodes_per_shard=3, f=1)
SPEC = WorkloadSpec(
    ops=90, keys=24, read_ratio=0.3, global_scan_ratio=0.15, clients=30,
    rate=2.0,
)


def test_campaign_survives_whole_shard_crashes():
    report = shard_crash_campaign(CONFIG, SPEC, 7, cells=3)
    assert len(report["cells"]) == 3 and report["ok_cells"] == 3
    assert report["all_ok"], [c["failures"] for c in report["cells"]]
    crashed = {c["crash_shard"] for c in report["cells"]}
    assert crashed <= set(range(3))
    for cell in report["cells"]:
        assert cell["survivors_clean"]
        assert cell["dead_shard_quiesced"]
        assert cell["composites_live"]
        assert cell["completed"] > 0


def test_campaign_workers_do_not_change_the_report():
    serial = shard_crash_campaign(CONFIG, SPEC, 7, cells=3)
    forked = shard_crash_campaign(CONFIG, SPEC, 7, cells=3, workers=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        forked, sort_keys=True
    )
