"""Write the knot table of ``tabulated-forecast.yaml``.

The forecast is the PS presets' sinusoid 2 + 3 sin(2 pi t) sampled at 41
knots on [0, 1], plus a fixed Gaussian perturbation so that it is a genuine
table rather than a smooth curve. The values are written literally into the
config, so the program under test only ever sees these generated inputs.

    python3 bench/inputs/make_tabulated.py > bench/inputs/tabulated-forecast.yaml
"""

import numpy as np

KNOTS = 41
GENERATOR_SEED = 20181012


def main() -> None:
    times = np.linspace(0.0, 1.0, KNOTS)
    noise = np.random.default_rng(GENERATOR_SEED).normal(0.0, 0.25, KNOTS)
    values = 2.0 + 3.0 * np.sin(2.0 * np.pi * times) + noise
    print("# tabulated-forecast: the PS3 `run` pipeline with a tabulated mean.")
    print("# Every conditional mean goes through TabulatedMean.weighted_integral,")
    print("# so the `moments` layer does nearly all the work; path sampling is")
    print("# small (200 paths). A moments change shows here and hardly on mc-ps3.")
    print("# Generated by make_tabulated.py; do not edit by hand.")
    print("preset: PS3")
    print("paths: 200")
    print("mean:")
    print("  type: tabulated")
    print("  times: [" + ", ".join(repr(float(t)) for t in times) + "]")
    print("  values: [" + ", ".join(repr(float(v)) for v in values) + "]")


if __name__ == "__main__":
    main()
