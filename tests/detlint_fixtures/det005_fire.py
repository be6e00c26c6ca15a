# detlint: treat-as src/repro/cloud/fixture.py
"""DET005 firing corpus: per hook, an ungated call + mutations before its gate."""


class Channel:
    def send_ungated(self, message, clock):
        clock.advance(0.001)
        # No `is not None` gate: chaos-off would crash on the None injector.
        self._hooks.injector.check("queue", "send", self.name, clock.now)
        self._messages.append(message)

    def send_mutates_first(self, message, clock):
        clock.advance(0.001)
        self._messages.append(message)  # state mutated before the injection check
        self.total_sends = self.total_sends + 1
        injector = self._hooks.injector
        if injector is not None:
            injector.check("queue", "send", self.name, clock.now)

    def send_untraced(self, message, clock):
        clock.advance(0.001)
        # No `is not None` gate: telemetry-off would crash on the None tracer.
        self._hooks.tracer.channel_op("queue", "send", self.name, clock.now)
        self._messages.append(message)

    def send_mutates_before_tracing(self, message, clock):
        clock.advance(0.001)
        self._messages.append(message)  # state mutated before the telemetry gate
        self.total_sends = self.total_sends + 1
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "send", self.name, clock.now)

    def send_uncollected(self, message, clock):
        clock.advance(0.001)
        # No `is not None` gate: contention-off would crash on the None arbiter.
        self._hooks.arbiter.channel_op("queue", "send", self.name, clock.now, 0.001)
        self._messages.append(message)

    def send_mutates_before_collecting(self, message, clock):
        clock.advance(0.001)
        self._messages.append(message)  # state mutated before the contention gate
        self.total_sends = self.total_sends + 1
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "send", self.name, clock.now, 0.001)

    def send_mutates_between_gates(self, message, clock):
        clock.advance(0.001)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "send", self.name, clock.now)
        self._messages.append(message)  # after the telemetry gate, before the injection check
        injector = self._hooks.injector
        if injector is not None:
            injector.check("queue", "send", self.name, clock.now)
