package event

import (
	"sync"
	"testing"

	"kalis/internal/telemetry"
)

func TestSyncDeliveryOrder(t *testing.T) {
	b := NewBus()
	var got []int
	b.Subscribe(TopicPacket, func(p interface{}) { got = append(got, p.(int)*10) })
	b.Subscribe(TopicPacket, func(p interface{}) { got = append(got, p.(int)*10+1) })
	b.Publish(TopicPacket, 1)
	b.Publish(TopicPacket, 2)
	want := []int{10, 11, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTopicsAreIsolated(t *testing.T) {
	b := NewBus()
	count := 0
	b.Subscribe(TopicDetection, func(interface{}) { count++ })
	b.Publish(TopicPacket, 1)
	b.Publish(TopicKnowledge, 2)
	if count != 0 {
		t.Errorf("cross-topic delivery: %d", count)
	}
	b.Publish(TopicDetection, 3)
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

func TestPublishAfterCloseIsNoop(t *testing.T) {
	b := NewBus()
	count := 0
	b.Subscribe(TopicPacket, func(interface{}) { count++ })
	b.Close()
	b.Publish(TopicPacket, 1)
	if count != 0 {
		t.Errorf("delivered after close")
	}
}

func TestSubscribeAfterCloseIsNoop(t *testing.T) {
	b := NewBus()
	b.Close()
	b.Subscribe(TopicPacket, func(interface{}) { t.Error("handler invoked") })
	b.Publish(TopicPacket, 1)
}

func TestDoubleCloseSafe(t *testing.T) {
	b := NewBus()
	b.Subscribe(TopicPacket, func(interface{}) {})
	b.Close()
	b.Close()
}

func TestConcurrentPublishAndClose(t *testing.T) {
	// Closing while publishers race must neither deadlock nor let a
	// handler run after Close has returned. closed is a plain variable
	// written after Close and read inside the handler, so under -race
	// the detector reports any handler that Close did not wait for.
	for round := 0; round < 20; round++ {
		b := NewBus()
		closed := false
		b.Subscribe(TopicPacket, func(interface{}) {
			if closed {
				t.Error("handler ran after Close returned")
			}
		})
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					b.Publish(TopicPacket, i)
				}
			}()
		}
		b.Close()
		closed = true
		wg.Wait()
	}
}

func TestReentrantPublish(t *testing.T) {
	// A sync handler may publish further events (the core pipeline
	// does: packet handling raises detection events).
	b := NewBus()
	var got []string
	b.Subscribe(TopicPacket, func(interface{}) {
		got = append(got, "packet")
		b.Publish(TopicDetection, "alert")
	})
	b.Subscribe(TopicDetection, func(interface{}) { got = append(got, "detection") })
	b.Publish(TopicPacket, 1)
	if len(got) != 2 || got[0] != "packet" || got[1] != "detection" {
		t.Errorf("got %v", got)
	}
	b.Close()
}

func TestPublishMetrics(t *testing.T) {
	b := NewBus()
	reg := telemetry.NewRegistry()
	pubs := reg.CounterVec("kalis_bus_publishes_total", "topic", "Publishes.")
	b.SetMetrics(Metrics{Publishes: pubs})
	b.Subscribe(TopicPacket, func(interface{}) {})
	b.Publish(TopicPacket, 1)
	b.Publish(TopicPacket, 2)
	b.Publish(TopicDetection, 3) // counted even with no subscribers
	if got := pubs.With(TopicPacket).Value(); got != 2 {
		t.Errorf("packet publishes = %d, want 2", got)
	}
	if got := pubs.With(TopicDetection).Value(); got != 1 {
		t.Errorf("detection publishes = %d, want 1", got)
	}
	b.Close()
}
