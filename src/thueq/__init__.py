"""Exact verification engine for a quartic Thue inequality over imaginary
quadratic integer rings."""

__version__ = "0.1.0"


def _forward(namespace: dict, module: str, names: tuple):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    namespace: each of names is read from the sibling ``module`` on first
    access and bound in namespace, so that later reads are plain attribute
    reads.  The module the names moved to is imported only then."""
    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module

        value = namespace[name] = getattr(import_module(f"{__name__}.{module}"), name)
        return value

    return __getattr__
