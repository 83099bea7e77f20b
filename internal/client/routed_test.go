package client

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestRefreshWithoutATable: the two ways a routed client can have no
// table to route by, each reported as what it is.
func TestRefreshWithoutATable(t *testing.T) {
	refused := func(string, time.Duration) (net.Conn, error) { return nil, errors.New("connection refused") }
	for _, tc := range []struct {
		name        string
		seeds       []string
		want        string
		unreachable bool
	}{
		{"no seeds", nil, "client: no seeds configured", false},
		{"no seed answers", []string{"a", "b"}, "client: no seed answered a route query: ", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRouted(tc.seeds, Options{MaxAttempts: 1, Clock: newFakeClock(), Rand: &fakeRand{}, Dial: refused})
			_, err := r.Get("k")
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "%!") {
				t.Fatalf("err = %v, want prefix %q", err, tc.want)
			}
			if errors.Is(err, transport.ErrUnreachable) != tc.unreachable {
				t.Fatalf("errors.Is(%v, ErrUnreachable) = %v, want %v", err, !tc.unreachable, tc.unreachable)
			}
		})
	}
}
