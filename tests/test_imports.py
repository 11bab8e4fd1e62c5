"""Import contract: the package and the compute CLI load the numerical core alone."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gyromean

SRC = Path(gyromean.__file__).resolve().parents[1]

# modules a user of the means alone should not pay for
CAMPAIGN_MODULES = (
    "gyromean.harness",
    "gyromean.registry",
    "gyromean.properties",
    "gyromean.randgen",
    "gyromean.order",
    "gyromean.fixtures",
    "concurrent.futures",
    "csv",
)

# each name loaded on first access -> the module that defines it
LAZY_NAMES = {
    "run_campaign": "harness",
    "CampaignConfig": "harness",
    "Report": "harness",
    "reproduce_counterexamples": "harness",
    "gen_random_pd": "randgen",
    "substream": "randgen",
    "check": "order",
    "CheckResult": "order",
    "INEQUALITY_CASES": "order",
    "equivalence_statements": "order",
    "weak_majorize": "order",
}


def _loaded_after(code: str, watched=CAMPAIGN_MODULES) -> list:
    """Which watched modules a fresh interpreter has loaded after running code."""
    probe = code + (f"\nimport json, sys\n"
                    f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_package_loads_no_campaign_module():
    assert _loaded_after("import gyromean") == []


def test_the_compute_and_geodesic_commands_load_no_campaign_module(tmp_path):
    for name, rows in (("a", [[2.0, 0.3], [0.3, 1.0]]), ("b", [[1.0, 0.0], [0.0, 3.0]])):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"dim": 2, "complex": False, "rows": rows}), encoding="utf-8")
    a, b, out = (str(tmp_path / f) for f in ("a.json", "b.json", "out.json"))
    code = (
        "from gyromean import cli\n"
        f"assert cli.main(['compute', '--op', 'geo', '--a', {a!r}, '--b', {b!r},"
        f" '--out', {out!r}]) == 0\n"
        f"assert cli.main(['geodesic', '--kind', 'gyroline', '--a', {a!r}, '--b', {b!r},"
        f" '--samples', '3', '--space', 'cone', '--out', {out!r}]) == 0\n"
    )
    assert _loaded_after(code) == []


def test_a_serial_campaign_loads_no_thread_pool():
    code = ("from gyromean.harness import CampaignConfig, run_campaign\n"
            "run_campaign(CampaignConfig(trials=1, dims=(2,)))\n")
    assert _loaded_after(code, ("concurrent.futures", "logging", "queue")) == []


def test_each_lazy_name_is_the_object_its_module_defines():
    assert gyromean._LAZY == LAZY_NAMES
    for name, module in LAZY_NAMES.items():
        value = getattr(gyromean, name)
        assert value is getattr(importlib.import_module(f"gyromean.{module}"), name), name
        assert vars(gyromean)[name] is value, name  # cached: later reads are plain
    assert gyromean.run_campaign is gyromean.harness.run_campaign


def test_dir_lists_the_lazy_names_and_from_import_resolves_them():
    assert set(LAZY_NAMES) <= set(dir(gyromean))
    assert {"geo_mean", "spectral_mean", "errors", "__version__"} <= set(dir(gyromean))
    from gyromean import CampaignConfig
    from gyromean.harness import CampaignConfig as defined

    assert CampaignConfig is defined


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gyromean.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from gyromean import no_such_name  # noqa: F401
