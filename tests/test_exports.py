import dycent


def test_exports_resolve_and_leave_out_the_second_spellings():
    # the package calls np.vdot, np.random.default_rng and run_loop over
    # baseline_stepper or dycent_step directly, so no second name for them is exported
    assert [name for name in dycent.__all__ if not hasattr(dycent, name)] == []
    assert [
        name for name in ("dot", "make_rng", "run_baseline", "run") if name in dycent.__all__ or hasattr(dycent, name)
    ] == []
