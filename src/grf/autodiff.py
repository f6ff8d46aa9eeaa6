"""Placeholder for the retired reverse-mode tape.

Nothing in the package differentiates through a tape: training has its own
reverse passes.  perfbench/tracing.py still patches `Tensor.backward` and
`Tensor._node` by name, so this class is only that patch target until the
benchmark drops both sites (ROADMAP R1a).
"""


class Tensor:
    """The tracer's patch target until R1a; every method raises."""

    def backward(self):
        raise NotImplementedError("the reverse-mode tape is retired")

    @staticmethod
    def _node(data, parents, backward):
        raise NotImplementedError("the reverse-mode tape is retired")
