import wdmatch


def test_root_exports_the_documented_api():
    # Everything else is imported from its own module, so internals can move
    # without breaking a caller of the package root.
    assert sorted(wdmatch.__all__) == [
        "ConfigError", "ConvergenceError", "HyperParams", "InfeasibleProblemError",
        "ParseError", "TransferModel", "ValidationError", "classify_target", "fit",
        "generate_synthetic_pair",
    ]
    assert all(hasattr(wdmatch, name) for name in wdmatch.__all__)
    assert isinstance(wdmatch.__version__, str)
