package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/nuwins/cellwheels/internal/dataset"
)

// section is one entry of the paper-order report: the identifiers it
// answers to and how to render it from the report's shared view of the
// database. maps yields Figure 1's coverage maps, the one section that
// needs more than the database.
type section struct {
	ids    []string
	render func(v *view, maps func() CoverageMaps) string
}

// fromView adapts a figure or table computed from the view to a section
// renderer.
func fromView[T interface{ Render() string }](f func(*view) T) func(*view, func() CoverageMaps) string {
	return func(v *view, _ func() CoverageMaps) string { return f(v).Render() }
}

// fromDB adapts a figure or table that reads the tables directly.
func fromDB[T interface{ Render() string }](f func(*dataset.DB) T) func(*view, func() CoverageMaps) string {
	return func(v *view, _ func() CoverageMaps) string { return f(v.db).Render() }
}

// constant adapts a section that reads nothing to a section renderer.
func constant(f func() string) func(*view, func() CoverageMaps) string {
	return func(*view, func() CoverageMaps) string { return f() }
}

// sections is the report, in paper order. Figures 7 and 8 are one
// speed scatter, so that entry answers to both ids and Report renders
// it once.
var sections = []section{
	{[]string{"table1"}, fromDB(TableDatasetStats)},
	{[]string{"fig1"}, func(_ *view, maps func() CoverageMaps) string { return maps().Render() }},
	{[]string{"fig2"}, fromDB(FigureCoverage)},
	{[]string{"fig3"}, fromView(staticVsDriving)},
	{[]string{"fig4"}, fromView(perTechnology)},
	{[]string{"fig5"}, fromView(timezonePerf)},
	{[]string{"fig6"}, fromView(operatorDiversity)},
	{[]string{"fig7", "fig8"}, fromView(speedScatter)},
	{[]string{"table2"}, fromView(kpiCorrelation)},
	{[]string{"fig9"}, fromView((*view).longTimescale)},
	{[]string{"fig10"}, fromView(highSpeed5GShare)},
	{[]string{"table3"}, fromView(ooklaComparison)},
	{[]string{"fig11"}, fromDB(FigureHandoverStats)},
	{[]string{"fig12"}, fromView(handoverImpact)},
	{[]string{"fig13"}, fromDB(FigureARApp)},
	{[]string{"fig14"}, fromDB(FigureCAVApp)},
	{[]string{"fig15"}, fromDB(FigureVideo)},
	{[]string{"fig16"}, fromDB(FigureGaming)},
	{[]string{"table4"}, constant(TableAppConfigs)},
	{[]string{"table5"}, constant(TableMAP)},
	{[]string{"multivariate"}, fromView(multivariate)},
}

// SectionIDs lists every section identifier, in paper order.
func SectionIDs() []string {
	var ids []string
	for _, s := range sections {
		ids = append(ids, s.ids...)
	}
	return ids
}

// Section renders the section with identifier id; maps is called only
// for Figure 1. ok is false for an unknown id.
func Section(db *dataset.DB, maps func() CoverageMaps, id string) (out string, ok bool) {
	for _, s := range sections {
		if slices.Contains(s.ids, id) {
			return s.render(newView(db), maps), true
		}
	}
	return "", false
}

// Report renders every table and figure in paper order, each followed by
// a blank line; Figure 1 comes from the precomputed maps. The sections
// are independent reads of one shared view of the database, so they
// render concurrently on a bounded worker pool; the join order is
// fixed, so the output is identical to a serial render.
func Report(db *dataset.DB, maps CoverageMaps) string {
	given := func() CoverageMaps { return maps }
	v := newView(db)
	rendered := make([]string, len(sections))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(sections))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rendered[i] = sections[i].render(v, given)
			}
		}()
	}
	for i := range sections {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var b strings.Builder
	for _, s := range rendered {
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String()
}
