"""Building an InferencePlan sets NumPy's OpenBLAS to one thread.

A multi-threaded OpenBLAS keeps its worker thread busy-waiting for
about 120 ms after every GEMM, which takes the second core from the
renderer's noise helper (DESIGN §5g).  The plan's per-image GEMMs gain
nothing from that thread, so building a plan pins OpenBLAS to one,
through ctypes on the library NumPy already loaded, and does nothing
where no such library is found.
"""

import ctypes
import resource
import time

import numpy as np
import pytest

from repro.vision import TinyYolo, YoloConfig
from repro.vision.nn import infer

_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

CONFIG = YoloConfig(input_w=48, input_h=80, channels=(8, 8, 16, 16))


def _openblas_function(names, argtypes, restype):
    library = infer._blas_library()
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            function.argtypes = argtypes
            function.restype = restype
            return function
    pytest.skip("NumPy's BLAS is not OpenBLAS")


def _openblas_threads():
    return _openblas_function(_GETTERS, [], ctypes.c_int)()


def _input(batch=1):
    return np.random.default_rng(0).random(
        (batch, 3, CONFIG.input_h, CONFIG.input_w), dtype=np.float32)


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def test_building_a_plan_pins_openblas_to_one_thread():
    # Undo the pin of any plan an earlier test built.
    _openblas_function(infer._BLAS_THREAD_SETTERS, [ctypes.c_int], None)(2)
    TinyYolo(CONFIG, seed=0).inference_plan()
    assert _openblas_threads() == 1


def test_no_blas_thread_spins_after_a_forward():
    # Full-size GEMMs: small ones run on one thread whatever the setting.
    config = YoloConfig()
    plan = TinyYolo(config, seed=0).inference_plan()
    _openblas_threads()  # skips without OpenBLAS
    plan.forward(np.random.default_rng(0).random(
        (1, 3, config.input_h, config.input_w), dtype=np.float32))
    before = _cpu_seconds()
    time.sleep(0.2)
    # A spinning worker burns about 0.12 s of these 0.2 s.
    assert _cpu_seconds() - before < 0.05


@pytest.mark.parametrize("library", [None, object()],
                         ids=["no-library", "no-setter"])
def test_plan_builds_without_an_openblas_setter(monkeypatch, library):
    monkeypatch.setattr(infer, "_blas_library", lambda: library)
    assert infer._pin_blas_to_one_thread() is False
    plan = TinyYolo(CONFIG, seed=0).inference_plan()
    x = _input(batch=2)
    out = plan.forward(x)
    assert out.shape[0] == 2
    assert np.array_equal(out[1:], plan.forward(x[1:]))
