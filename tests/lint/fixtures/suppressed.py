# lint fixture: every violation here carries an inline suppression, so
# the file must lint clean.
import random  # lint: ignore[RL001] — fixture demonstrating suppression

from repro.runtime.protocol import ProtocolNode, WaitUntil


class SuppressedNode(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.acks = {}

    def on_message(self, src, payload):
        self.acks[src] = payload
        if len(self.acks) >= 3:  # lint: ignore[RL004]
            self.broadcast(random.random())

    # lint: ignore-next-line[RL005]
    def op(self):
        yield WaitUntil(lambda: len(self.acks) >= self.quorum_size, "acks")
