// Quickstart: run a small slice of the LA→Boston campaign and print the
// headline numbers plus two of the paper's figures.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/nuwins/cellwheels"
)

func main() {
	// 150 km out of Los Angeles: urban LA, suburbs, and the first
	// stretch of I-15. Takes a few seconds.
	study, err := cellwheels.Run(cellwheels.Config{
		Seed:          42,
		LimitKm:       150,
		VideoSeconds:  60, // shorten the two long app tests for the demo
		GamingSeconds: 45,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(study.Summary())
	fmt.Println()

	for _, id := range []string{"fig2", "fig3"} {
		section, err := study.Section(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(section)
	}

	fmt.Println("For the full paper-style report over the whole route, run:")
	fmt.Println("  go run ./cmd/cellwheels report -seed 42")
}
