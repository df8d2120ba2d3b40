package faultio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeWorkload publishes "hello world" to dir/f in two writes through
// WriteFileAtomic: open, two writes, sync, close, rename, syncdir.
func writeWorkload(fs FS, dir string) error {
	return WriteFileAtomic(fs, filepath.Join(dir, "f"), true, func(w io.Writer) error {
		if _, err := io.WriteString(w, "hello "); err != nil {
			return err
		}
		_, err := io.WriteString(w, "world")
		return err
	})
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := writeWorkload(OS, dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("content %q", got)
	}
}

func TestDryRunCountsOps(t *testing.T) {
	in := &Injector{Base: OS}
	if err := writeWorkload(in, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	// open + 2 writes + sync + close + rename + syncdir = 7.
	if in.Ops() != 7 {
		t.Fatalf("ops = %d, want 7", in.Ops())
	}
	if in.Crashed() {
		t.Fatal("dry run marked crashed")
	}
}

func TestCrashSweepNeverExposesPartialFile(t *testing.T) {
	for at := 1; at <= 7; at++ {
		dir := t.TempDir()
		in := &Injector{Base: OS, Mode: ModeCrash, At: at}
		err := writeWorkload(in, dir)
		if err == nil {
			t.Fatalf("at=%d: workload succeeded despite crash", at)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("at=%d: err = %v, want injected", at, err)
		}
		// The destination either does not exist (crash before rename)
		// or holds the complete content (crash after).
		got, rerr := os.ReadFile(filepath.Join(dir, "f"))
		if rerr == nil && string(got) != "hello world" {
			t.Fatalf("at=%d: partial destination %q", at, got)
		}
	}
}

func TestShortWriteTearsThenDies(t *testing.T) {
	dir := t.TempDir()
	in := &Injector{Base: OS, Mode: ModeShortWrite, At: 2} // first Write call
	err := writeWorkload(in, dir)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	got, rerr := os.ReadFile(filepath.Join(dir, "f.tmp"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "hel" { // half of "hello "
		t.Fatalf("torn content %q, want %q", got, "hel")
	}
	// Dead after the tear: nothing else succeeds.
	if _, err := in.OpenFile(filepath.Join(dir, "other"), os.O_WRONLY|os.O_CREATE, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash open: %v", err)
	}
}

func TestFailModeIsTransient(t *testing.T) {
	dir := t.TempDir()
	in := &Injector{Base: OS, Mode: ModeFail, At: 4} // the Sync call
	if err := writeWorkload(in, dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "f.tmp")); !os.IsNotExist(err) {
		t.Fatalf("failed publish left its temp file: %v", err)
	}
	// Transient: a retry (new ops, past At) goes through.
	if err := writeWorkload(in, dir); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("content %q", got)
	}
}
