# detlint: treat-as src/repro/cloud/fixture.py
"""DET005 non-firing corpus: the canonical gated hook points."""


class Channel:
    def send(self, message, clock):
        duration = 0.001
        clock.advance(duration)
        injector = self._hooks.injector
        if injector is not None:
            injector.check("queue", "send", self.name, clock.now)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "send", self.name, clock.now)
            tracer.gauge_sample("queue.depth", len(self._messages) + 1, clock.now)
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "send", self.name, clock.now, duration)
        self._messages.append(message)
        self.total_sends = self.total_sends + 1

    def receive(self, clock, enforce_timeout=True):
        injector = self._hooks.injector
        if injector is not None and enforce_timeout:
            try:
                injector.check("queue", "receive", self.name, clock.now)
            except Exception:
                raise
        return list(self._messages)

    def drain(self, clock):
        duration = 0.001
        clock.advance(duration)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "drain", self.name, clock.now)
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "drain", self.name, clock.now, duration)
        messages = list(self._messages)
        if tracer is not None:
            tracer.gauge_sample("queue.depth", len(self._messages), clock.now)
        if arbiter is not None:
            arbiter.channel_op("queue", "ack", self.name, clock.now, duration)
        return messages
