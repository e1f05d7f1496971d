"""Machine-speed calibration for timings on a shared, noisy host.

On a small virtual machine the same run can take 1.8 times as long for
anything from a fraction of a second to several seconds when neighbours load
the host. That swamps any change worth measuring. So the benchmark times a
fixed piece of reference work next to every measurement and reports each
time scaled to the reference speed:

    reported = measured / speed,  speed = reference time nearby / REFERENCE_S

On a quiet host the speed is about 1 and reported times are wall times. The
reference work is plain Python, like most of what scqsim spends its time on:
a scalar float loop (the Lyapunov integrator), complex multiply-adds (RK4 on
two-level states) and repr of floats (CSV export). It imports nothing but
``time``, so it can run just before ``import scqsim.cli`` is timed without
preloading anything scqsim needs, and no program change can move it.
"""

import time

#: reference time on a quiet 2-vCPU x86-64 VM with Python 3.11; loaded
#: spells on the same VM read up to twice as much
REFERENCE_S = 0.5e-3

_FLOATS = [i * 1.1 for i in range(400)]


def reference_work() -> float:
    """Seconds taken by one unit of reference work."""
    start = time.perf_counter()
    x, y, z = 0.3, 0.4, 0.866
    for _ in range(1500):
        w = x * 0.5 - y * 0.25
        u = y * 0.1 - z * 0.2
        x, y, z = x - 1e-3 * w * z, y + 1e-3 * u * z, z + 1e-3 * (w * x - u * y)
    a, b = 1.0 + 0j, 0j
    for _ in range(600):
        a, b = a - 0.5e-3j * b, b - 0.5e-3j * a
    ",".join(repr(f) for f in _FLOATS)
    return time.perf_counter() - start


def speed_factor(samples: int = 3) -> float:
    """Median of an odd number of reference timings over REFERENCE_S (2 = half speed)."""
    times = sorted(reference_work() for _ in range(samples))
    return times[len(times) // 2] / REFERENCE_S
