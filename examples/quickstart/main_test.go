package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOutputIsDeterministic: the example prints the same bytes on every
// run, with the socket 35 packet before the socket 36 one.
func TestOutputIsDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	out := first.String()
	i35 := strings.Index(out, "checked interpreter, socket 35")
	i36 := strings.Index(out, "checked interpreter, socket 36")
	if i35 < 0 || i36 < 0 || i35 > i36 {
		t.Fatalf("want socket 35's line before socket 36's:\n%s", out)
	}
}
