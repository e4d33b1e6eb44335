// Federated search: three librarian servers on real TCP sockets, one
// shared federation comparing the CN and CV methodologies, then fanning
// several concurrent clients out over the one receptionist pool — the
// paper's core architecture in ~100 lines.
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"teraphim"
)

// Three topically distinct subcollections: the same query gets very
// different local statistics at each site, which is exactly what separates
// Central Nothing from Central Vocabulary.
var sites = map[string][]teraphim.Document{
	"news": {
		{Title: "news-0", Text: "The election results dominated the news cycle this week."},
		{Title: "news-1", Text: "Networks reported record election turnout across the country."},
		{Title: "news-2", Text: "A storm disrupted broadcast networks on election night."},
	},
	"tech": {
		{Title: "tech-0", Text: "Distributed systems replicate state across networks of machines."},
		{Title: "tech-1", Text: "The new database shards its index across many network nodes."},
		{Title: "tech-2", Text: "Compression reduces network transfer for distributed queries."},
	},
	"law": {
		{Title: "law-0", Text: "The court examined election law precedents from three states."},
		{Title: "law-1", Text: "Network regulation statutes were revised by the legislature."},
	},
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	analyzer := teraphim.NewAnalyzer()

	// Start one librarian server per subcollection.
	dialer := teraphim.TCPDialer{}
	names := []string{"news", "tech", "law"}
	for _, name := range names {
		lib, err := teraphim.BuildLibrarianWith(name, sites[name], teraphim.BuildOptions{Analyzer: analyzer})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := teraphim.ServeLibrarian(lib, ln)
		defer srv.Close()
		dialer[name] = srv.Addr().String()
		fmt.Printf("librarian %-5s serving %d docs on %s\n", name, len(sites[name]), srv.Addr())
	}

	// One pool holds the shared federation state. The vocabulary merge
	// below runs exactly once; every client reuses it.
	pool, err := teraphim.ConnectPool(dialer, names, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		return err
	}
	defer pool.Close()
	if _, err := pool.SetupVocabulary(); err != nil {
		return err
	}
	terms, bytes := pool.Federation().VocabularySize()
	fmt.Printf("federation merged vocabulary: %d terms, %d bytes (set up once)\n\n", terms, bytes)

	query := "election networks"
	for _, mode := range []teraphim.Mode{teraphim.ModeCN, teraphim.ModeCV} {
		res, err := pool.Query(mode, query, 5, teraphim.Options{Fetch: true})
		if err != nil {
			return err
		}
		fmt.Printf("%s ranking for %q (asked %d librarians, merged %d candidates):\n",
			mode, query, res.Trace.LibrariansAsked, res.Trace.MergeCandidates)
		for i, a := range res.Answers {
			fmt.Printf("  %d. %-8s %.4f  %s\n", i+1, a.Key(), a.Score, a.Title)
		}
		fmt.Printf("  round trips: %d, bytes moved: %d\n\n",
			res.Trace.RoundTrips(0), res.Trace.BytesTransferred(0))
	}

	// Concurrent serving: each client queries the same pool, borrowing
	// pooled connections; none repeats the vocabulary setup.
	const clients = 4
	queries := []string{"election networks", "distributed index", "court statutes", "storm turnout"}
	tops := make([]string, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := pool.Query(teraphim.ModeCV, queries[c], 1, teraphim.Options{})
			if err != nil {
				errs <- err
				return
			}
			if len(res.Answers) > 0 {
				tops[c] = res.Answers[0].Key()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	fmt.Printf("%d concurrent CV clients over one federation:\n", clients)
	for c, q := range queries {
		fmt.Printf("  client %d: %-20q top answer %s\n", c, q, tops[c])
	}

	fmt.Println()
	fmt.Println("Note how CN and CV can order answers differently: CN librarians weight")
	fmt.Println("\"election\" and \"networks\" by their own subcollection statistics, while CV")
	fmt.Println("ships uniform global weights, reproducing the monolithic ranking exactly.")
	return nil
}
