// Quickstart: build a collection, run a ranked query, fetch the winner.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"teraphim"
)

func main() {
	docs := []teraphim.Document{
		{Title: "intro", Text: "Text collections have traditionally been located at a single site " +
			"and managed as a monolithic whole."},
		{Title: "ranking", Text: "Ranked queries assign each document a similarity score and present " +
			"documents in decreasing similarity order."},
		{Title: "distribution", Text: "Distributed information retrieval spreads a collection over " +
			"several hosts; librarians manage subcollections and receptionists broker queries."},
		{Title: "efficiency", Text: "Network bandwidth and round trip times are crucial to the " +
			"efficiency of distributed query evaluation."},
	}

	lib, err := teraphim.BuildLibrarian("quickstart", docs)
	if err != nil {
		log.Fatal(err)
	}

	// Ranked retrieval with the cosine measure.
	ranking, err := lib.Engine().Rank("distributed ranked retrieval over a network", 3, nil)
	results, stats := ranking.Results, ranking.Stats
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query touched %d inverted lists, decoded %d postings\n\n",
		stats.ListsFetched, stats.PostingsDecoded)
	for i, r := range results {
		doc, err := lib.Store().Fetch(r.Doc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d. %-14s score %.4f\n   %s\n", i+1, doc.Title, r.Score, doc.Text)
	}

	// Boolean retrieval over the same index.
	matches, _, err := lib.Engine().Boolean("(ranked OR distributed) AND NOT monolithic")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBoolean matches: %v\n", matches)

	// The whole collection — index and documents — lives compressed.
	fmt.Printf("\nstore: %d bytes raw, %d bytes compressed; index: %d bytes\n",
		lib.Store().RawSize(), lib.Store().CompressedSize(), lib.Engine().Index().SizeBytes())
}
