package teraphim_test

import (
	"context"
	"fmt"
	"log"

	"teraphim"
)

// The library's one-minute tour: build a librarian over a few documents and
// run a ranked query.
func Example() {
	docs := []teraphim.Document{
		{Title: "mono", Text: "Text collections have traditionally been managed as a monolithic whole."},
		{Title: "dist", Text: "Distributed retrieval spreads a collection over several hosts."},
		{Title: "rank", Text: "Ranked queries order documents by similarity to the query."},
	}
	lib, err := teraphim.BuildLibrarian("demo", docs)
	if err != nil {
		log.Fatal(err)
	}
	ranking, err := lib.Engine().Rank("distributed collection hosts", 2, nil)
	results := ranking.Results
	if err != nil {
		log.Fatal(err)
	}
	doc, err := lib.Store().Fetch(results[0].Doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(doc.Title)
	// Output: dist
}

// Federating several librarians behind a receptionist with the Central
// Vocabulary methodology: scores are identical to a monolithic system's.
func ExamplePool() {
	analyzer := teraphim.NewAnalyzer()
	libA, err := teraphim.BuildLibrarianWith("A", []teraphim.Document{
		{Title: "a0", Text: "solar energy from photovoltaic panels"},
	}, teraphim.BuildOptions{Analyzer: analyzer})
	if err != nil {
		log.Fatal(err)
	}
	libB, err := teraphim.BuildLibrarianWith("B", []teraphim.Document{
		{Title: "b0", Text: "wind energy from coastal turbines"},
	}, teraphim.BuildOptions{Analyzer: analyzer})
	if err != nil {
		log.Fatal(err)
	}
	dialer := teraphim.NewInProcessDialer([]*teraphim.Librarian{libA, libB}, teraphim.LinkConfig{})
	pool, err := teraphim.ConnectPool(dialer, []string{"A", "B"}, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.SetupVocabulary(); err != nil {
		log.Fatal(err)
	}
	res, err := pool.Query(teraphim.ModeCV, "wind energy", 2, teraphim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Answers[0].Key())
	// Output: B:0
}

// Distributed Boolean evaluation needs no global statistics: the answer is
// the union of per-librarian result sets.
func ExamplePool_boolean() {
	analyzer := teraphim.NewAnalyzer(teraphim.WithoutStopwords(), teraphim.WithoutStemming())
	libA, err := teraphim.BuildLibrarianWith("A", []teraphim.Document{
		{Title: "a0", Text: "apples and oranges"},
		{Title: "a1", Text: "apples only"},
	}, teraphim.BuildOptions{Analyzer: analyzer})
	if err != nil {
		log.Fatal(err)
	}
	libB, err := teraphim.BuildLibrarianWith("B", []teraphim.Document{
		{Title: "b0", Text: "oranges only"},
	}, teraphim.BuildOptions{Analyzer: analyzer})
	if err != nil {
		log.Fatal(err)
	}
	dialer := teraphim.NewInProcessDialer([]*teraphim.Librarian{libA, libB}, teraphim.LinkConfig{})
	pool, err := teraphim.ConnectPool(dialer, []string{"A", "B"}, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	res, err := pool.Boolean(context.Background(), "apples OR oranges", teraphim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range res.Answers {
		fmt.Println(a.Key())
	}
	// Output:
	// A:0
	// A:1
	// B:0
}
