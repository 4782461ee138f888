import ast
import re
from pathlib import Path

from tdq import information, special_functions as sf, verify

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_sketch_runs():
    # the README's one python block calls the public API by name, so a
    # rename or deletion must fail here
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_stated_envelope_is_the_code_envelope():
    text = README.read_text()
    bullet = re.search(r"^\* Supported envelopes:(.*?)(?:^\S|\Z)", text, re.M | re.S)
    stated = " ".join(bullet.group(1).split())
    for claim in (f"Bessel order <= {sf._BESSEL_ORDER_MAX:g} "
                  f"and argument <= {sf._BESSEL_X_MAX:g};",
                  f"`z = -x^2 >= -{sf._HYP_X_MAX ** 2:g}`",
                  f"Quantum numbers n <= {information._MAX_CLOSED_FORM_N} ",
                  f"`density` takes n <= {sf._HERMITE_N_MAX} ",
                  f"`observables` uses closed forms and takes n <= {sf._QUANTUM_NUMBER_MAX} "):
        assert claim in stated


def test_stated_modulus_branch_points_are_the_code_branch_points():
    # the accuracy notes name the arguments where `_bessel_modulus_sq`
    # switches branch; a change of either constant must fail here
    text = " ".join(README.read_text().split())
    low, high = sf._TEMME_X_MAX, sf._MODULUS_ASYMPTOTIC_X
    for claim in (f"where `x < {low:g}` or `x < beta`, one run of the Bessel kernel",
                  f"where `max({low:g}, beta) <= x < {high:g}`, Steed's CF2",
                  f"where `x >= {high:g}`, the non-oscillatory asymptotic series"):
        assert claim in text


def test_stated_check_count_is_the_suite():
    counts = re.findall(r"`tdq verify` runs (\d+) checks", README.read_text())
    assert counts == [str(len(verify._ALL_CHECKS))]


def test_sources_parse_at_the_declared_python_floor():
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    version = (int(floor.group(1)), int(floor.group(2)))
    for path in sorted((ROOT / "src" / "tdq").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=version)
