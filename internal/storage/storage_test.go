package storage

import "testing"

func TestNullStore(t *testing.T) {
	var n NullStore
	if err := n.WritePage(1, 0, nil, 4096); err != nil {
		t.Fatal(err)
	}
	if err := n.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
}
