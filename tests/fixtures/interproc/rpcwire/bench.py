"""MCH050 negative fixture: raw wire RPCs, the forward visited first.

``_client_loop`` sorts before ``setup``, so the forward of "slow" is
collected before its ``register`` call; it must still match.  "missing"
is registered nowhere and stays an orphan.
"""


def _slow(ctx):
    yield UltSleep(0.002)  # noqa: F821
    return ctx.args


def _client_loop(margo, address):
    reply = yield from margo.forward(address, "slow", b"x", timeout=0.001)
    yield from margo.forward(address, "missing", b"x")
    return reply


def setup(server):
    server.register("slow", _slow)
