package main

import (
	"strings"
	"testing"

	"sentinel/internal/machine"
)

// TestModelNames: every name machine.ParseModel accepts — each model's own
// name and the aliases "" and "stores" — resolves to a valid machine, and
// an unknown name is refused by name.
func TestModelNames(t *testing.T) {
	names := []string{"", "stores"}
	for m := machine.Model(0); !strings.HasPrefix(m.String(), "model("); m++ {
		names = append(names, m.String())
	}
	for _, name := range names {
		if _, err := parseMachine(name, 4, "perfect", 0); err != nil {
			t.Errorf("parseMachine(%q): %v", name, err)
		}
	}
	if _, err := parseMachine("warp-drive", 4, "perfect", 0); err == nil || !strings.Contains(err.Error(), `"warp-drive"`) {
		t.Errorf("parseMachine(warp-drive) = %v; want an error naming the model", err)
	}
}
