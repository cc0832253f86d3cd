"""Shared exception types."""


class NotClosedError(ValueError):
    """A set of partial functions is not closed under the algebra operations.
    The operands are partial functions or their names."""

    def __init__(self, op: str, operands: tuple, result) -> None:
        self.op = op
        self.operands = operands
        self.result = result
        args = ", ".join(map(str, operands))
        super().__init__(f"set not closed under {op}: {op}({args}) = {result!r} is missing")


class NoZeroError(ValueError):
    """A(a)*a is not the same element for every a, so the zero constant is undefined."""

    def __init__(self, witness: tuple[int, int]) -> None:
        self.witness = witness
        super().__init__(
            f"no zero constant: A(a)*a differs for elements {witness[0]} and {witness[1]}"
        )


class InconsistencyError(RuntimeError):
    """A property that is guaranteed for valid input failed; indicates an upstream bug."""


class NotFunctionalError(ValueError):
    """A transducer produced two distinct outputs for one input word."""

    def __init__(self, word: str, outputs: tuple[str, str]) -> None:
        self.word = word
        self.outputs = outputs
        super().__init__(f"not functional: input {word!r} has outputs {outputs[0]!r} and {outputs[1]!r}")
