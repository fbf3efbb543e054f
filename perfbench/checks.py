"""The failure every workload's correctness checks raise."""


class CheckFailed(Exception):
    pass


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)
