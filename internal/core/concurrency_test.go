package core

import (
	"net"
	"reflect"
	"sync"
	"testing"

	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
)

// TestManyReceptionistsOneLibrarianFleet exercises the architecture point
// the paper makes explicit: "a librarian may be in communication with
// several receptionists". Several receptionists, each its own session over
// real TCP, query the same librarians concurrently and must all observe
// identical results.
func TestManyReceptionistsOneLibrarianFleet(t *testing.T) {
	corpus, order := smallCorpus(t)
	a := testAnalyzer()
	dialer := simnet.TCPDialer{}
	var servers []*librarian.Server
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := librarian.Serve(lib, ln)
		servers = append(servers, srv)
		dialer[name] = srv.Addr().String()
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	// Reference answer from one receptionist.
	ref, err := NewPool(dialer, order, Config{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(ModeCV, "alpha federal wallstreet", 10, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 6
	const queriesPer = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recep, err := NewPool(dialer, order, Config{Analyzer: a})
			if err != nil {
				errs <- err
				return
			}
			defer recep.Close()
			if _, err := recep.SetupVocabulary(); err != nil {
				errs <- err
				return
			}
			for j := 0; j < queriesPer; j++ {
				got, err := recep.Query(ModeCV, "alpha federal wallstreet", 10, Options{})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Answers, want.Answers) {
					errs <- errMismatch
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errConst("concurrent session observed different answers")

type errConst string

func (e errConst) Error() string { return string(e) }
