package ablation

// The ablation-identity subject: interface dispatch and a goroutine sharing
// a tracked file, so both the devirtualizer and the MHP pass have something
// to change. Lowered with both passes off (gofront.Options, a test-only
// reference), TestAblationIdentity holds it to testdata/golden/ablation.json.

import (
	"os"
	"sync"
)

type sink interface {
	record(f *os.File)
}

type writer struct{}

func (writer) record(f *os.File) { f.Write(nil) }

type noter struct{}

func (noter) record(f *os.File) { f.Sync() }

func ship(s sink, f *os.File) {
	s.record(f)
}

func worker(f *os.File, mu *sync.Mutex) {
	mu.Lock()
	f.Write(nil)
	mu.Unlock()
}

func Run(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	mu := &sync.Mutex{}
	go worker(f, mu)
	ship(writer{}, f)
	ship(noter{}, f)
	return nil // f is never closed: the file-handle pack reports the leak
}
