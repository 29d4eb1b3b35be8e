"""Unit tests for the notification bus."""

from __future__ import annotations

from repro.backend.notifications import Notification, NotificationBus


def _notification(user_ids=(1,)) -> Notification:
    return NotificationBus.for_users(timestamp=0.0, server="api0", process=0,
                                     user_ids=user_ids, volume_id=5, kind="Unlink")


class TestNotificationBus:
    def test_publish_reaches_all_subscribers_except_origin(self):
        bus = NotificationBus()
        received = []
        bus.subscribe("api0/0", lambda n: (received.append(("a", n)), 1)[1])
        bus.subscribe("api1/0", lambda n: (received.append(("b", n)), 2)[1])
        pushed = bus.publish(_notification(), exclude="api0/0")
        assert pushed == 2
        assert [name for name, _ in received] == ["b"]
        assert bus.published == 1
        assert bus.deliveries == 1
        assert bus.pushes == 2

    def test_publish_without_exclusion(self):
        bus = NotificationBus()
        bus.subscribe("x", lambda n: 1)
        bus.subscribe("y", lambda n: 0)
        assert bus.publish(_notification()) == 1
        assert bus.delivery_counts() == {"x": 1, "y": 1}

    def test_short_circuit_accounting(self):
        bus = NotificationBus()
        bus.record_short_circuit(3)
        assert bus.short_circuits == 3
        assert bus.pushes == 3
        assert bus.published == 0

    def test_subscribers_listing(self):
        bus = NotificationBus()
        bus.subscribe("api0/0", lambda n: 0)
        assert bus.subscribers() == ["api0/0"]

    def test_notification_affects(self):
        notification = _notification(user_ids=(3, 4))
        assert notification.affects(3)
        assert not notification.affects(5)

    def test_bound_method_subscriber_is_held_weakly(self):
        class Process:
            def deliver(self, notification):
                return 1

        bus = NotificationBus()
        process = Process()
        bus.subscribe("api0/0", process.deliver)
        bus.subscribe("api1/0", lambda n: 2)
        assert bus.publish(_notification()) == 3
        del process  # freed by reference counting: the bus does not hold it
        assert bus.publish(_notification()) == 2
        assert bus.deliveries == 3
        assert bus.delivery_counts() == {"api0/0": 1, "api1/0": 2}
