"""Deterministic RNG substreams, drawn in blocks of steps.

Every random draw in a run comes from a generator keyed by (run seed, domain
tag, ...indices).  A per-step stream is drawn BLOCK_STEPS steps at a time: the
key ends in the block number step // BLOCK_STEPS, one generator fills a
(BLOCK_STEPS, width) array, and step reads its row step % BLOCK_STEPS.  A
step's draws are therefore still a pure function of (seed, domain, ids, step):
they never depend on evaluation order, on which steps ran before, or on how
many other components consumed randomness, which is what makes fast/realtime,
snapshot replays and re-runs bit-identical.  Each consumer keeps the one live
block of its key in a `BlockRows`.
"""

import numpy as np

OCCUPANT_DOMAIN = 1
COMM_DOMAIN = 2
# Steps in one block of a keyed per-step stream.
BLOCK_STEPS = 1024


def substream(*key: int) -> np.random.Generator:
    """Independent generator for an integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


class BlockRows:
    """The live block of one keyed per-step stream: `width` uniforms a step.

    With `convert`, a block holds what convert makes of its uniforms (an
    indexable of BLOCK_STEPS rows), worked out once when the block is drawn.
    """

    __slots__ = ("width", "convert", "key", "rows")

    def __init__(self, width: int, convert=None):
        self.width = width
        self.convert = convert
        self.key = None    # (*key, block number) of rows; none drawn yet
        self.rows = None

    def row(self, draw, step: int, *key: int):
        """Step's row: row step % BLOCK_STEPS of the block that
        draw(*key, step // BLOCK_STEPS) fills (a numpy row of uniforms
        without `convert`).  Consumers pass the `substream` name of their own
        module, so wrapping that name sees every block drawn."""
        block, row = divmod(step, BLOCK_STEPS)
        key = (*key, block)
        if key != self.key:
            rows = draw(*key).random((BLOCK_STEPS, self.width))
            self.rows = rows if self.convert is None else self.convert(rows)
            self.key = key
        return self.rows[row]
