"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from powertrack import (
    ConstantHeight,
    ConstantMean,
    LognormalHeight,
    NormalHeight,
    SinusoidMean,
)

HEIGHT_LAWS = st.one_of(
    st.builds(ConstantHeight, st.floats(-3.0, 3.0)),
    st.builds(NormalHeight, st.floats(-3.0, 3.0), st.floats(0.0, 2.0)),
    st.builds(LognormalHeight, st.floats(-2.0, 1.0), st.floats(0.0, 1.0)),
)
# forecasts defined at every time
MEANS = st.one_of(
    st.builds(ConstantMean, st.floats(-5.0, 5.0)),
    st.builds(SinusoidMean, st.floats(-5.0, 5.0), st.floats(0.0, 5.0),
              st.floats(0.0, 10.0)),
)
