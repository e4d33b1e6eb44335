// Federated search: three librarian servers on real TCP sockets, one
// shared federation comparing the CN, CV and CI methodologies, then fanning
// several concurrent clients out over the one receptionist pool — the
// paper's core architecture in under 100 lines.
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"
	"net"

	"teraphim"
)

// Three topically distinct subcollections: the same query gets very different
// local statistics at each site, which is what separates CN from CV.
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

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	analyzer := teraphim.NewAnalyzer()
	dialer := teraphim.TCPDialer{}
	names := []string{"news", "tech", "law"}
	for _, name := range names {
		lib, err := teraphim.BuildLibrarianWith(name, sites[name], teraphim.BuildOptions{Analyzer: analyzer})
		check(err)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		srv := teraphim.ServeLibrarian(lib, ln)
		defer srv.Close()
		dialer[name] = srv.Addr().String()
		fmt.Printf("librarian %-5s serving %d docs on %s\n", name, len(sites[name]), srv.Addr())
	}

	// One pool holds the shared federation state: the merged vocabulary and
	// the central index (groups of two documents) are set up once, for all.
	pool, err := teraphim.ConnectPool(dialer, names, teraphim.ReceptionistConfig{Analyzer: analyzer})
	check(err)
	defer pool.Close()
	_, err = pool.SetupVocabulary()
	check(err)
	_, err = pool.SetupCentralIndexRemote(2)
	check(err)
	terms, bytes := pool.Federation().VocabularySize()
	fmt.Printf("federation merged vocabulary: %d terms, %d bytes (set up once)\n\n", terms, bytes)

	query := "election networks"
	for _, mode := range []teraphim.Mode{teraphim.ModeCN, teraphim.ModeCV, teraphim.ModeCI} {
		res, err := pool.Query(mode, query, 5, teraphim.Options{Fetch: true})
		check(err)
		fmt.Printf("%s ranking for %q (asked %d librarians, merged %d candidates):\n",
			mode, query, res.Trace.LibrariansAsked, res.Trace.MergeCandidates)
		for i, a := range res.Answers {
			fmt.Printf("  %d. %-8s %.4f  %s\n", i+1, a.Key(), a.Score, a.Title)
		}
		fmt.Printf("  round trips: %d, bytes moved: %d\n\n", res.Trace.RoundTrips(0), res.Trace.BytesTransferred(0))
	}

	// Concurrent clients borrow the pool's connections; none repeats set-up.
	queries := []string{"election networks", "distributed index", "court statutes", "storm turnout"}
	tops := make([]chan string, len(queries))
	for c, q := range queries {
		tops[c] = make(chan string, 1)
		go func() {
			res, err := pool.Query(teraphim.ModeCV, q, 1, teraphim.Options{})
			check(err)
			tops[c] <- res.Answers[0].Key()
		}()
	}
	fmt.Printf("%d concurrent CV clients over one federation:\n", len(queries))
	for c, q := range queries {
		fmt.Printf("  client %d: %-20q top answer %s\n", c, q, <-tops[c])
	}
	fmt.Println("\nCN librarians weight \"election\" and \"networks\" by their own statistics;")
	fmt.Println("CV and CI use global weights, so CV reproduces the monolithic ranking exactly.")
}
