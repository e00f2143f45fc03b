package exp

import "slices"

// Reference data transcribed from the paper, used by the comparison report
// and by EXPERIMENTS.md generation. Values are percentages of messages
// detected as possibly deadlocked on the 512-node bidirectional 8-ary
// 3-cube.
//
// PaperTable1 and PaperTable2 are complete (uniform traffic; rows Th 2,
// 4, ..., 1024; columns rate-major then size s, l, L, sl). PaperTh32Rows
// holds the Th=32 row of Tables 3-7 (sizes s, l, sl), enough to check the
// paper's headline claim that threshold 32 bounds worst-case false
// detection.

// PaperThresholds are the row labels of Tables 1 and 2.
var PaperThresholds = []int64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// PaperUniformRates are the column groups of Tables 1 and 2 in
// flits/cycle/node; the last is the saturated load.
var PaperUniformRates = []float64{0.428, 0.471, 0.514, 0.600}

// PaperTable1 is the PDM reference (Table 1): [threshold][rate*4+size].
var PaperTable1 = [10][16]float64{
	{.055, .191, .295, .299, .199, .662, 1.08, 1.03, .605, 2.37, 4.61, 4.86, 26.0, 30.5, 33.4, 36.0},
	{.000, .014, .025, .033, .023, .043, .088, .094, .100, .205, .335, .736, 13.1, 7.75, 6.64, 13.4},
	{.000, .003, .010, .005, .007, .011, .026, .036, .020, .095, .115, .355, 8.58, 5.07, 3.95, 9.87},
	{.000, .003, .010, .005, .004, .007, .026, .024, .000, .072, .115, .260, 5.45, 4.42, 3.83, 8.32},
	{.000, .002, .010, .005, .000, .005, .023, .013, .000, .050, .110, .155, 2.96, 3.24, 3.66, 5.87},
	{.000, .000, .010, .001, .000, .004, .021, .005, .000, .012, .090, .038, 1.71, 1.63, 3.30, 3.20},
	{.000, .000, .005, .001, .000, .002, .018, .000, .000, .002, .070, .008, 1.24, .350, 2.50, 1.57},
	{.000, .000, .005, .000, .000, .000, .005, .000, .000, .000, .045, .000, .840, .020, 1.27, 1.01},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .005, .000, .400, .000, .290, .680},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .002, .000, .110, .000, .020, .290},
}

// PaperTable2 is the NDM reference (Table 2): [threshold][rate*4+size].
var PaperTable2 = [10][16]float64{
	{.000, .021, .055, .028, .015, .069, .123, .086, .045, .097, .555, .513, 2.40, 3.75, 4.33, 3.92},
	{.000, .000, .005, .001, .001, .005, .000, .002, .000, .002, .125, .045, .830, .551, .412, .900},
	{.000, .000, .000, .000, .000, .001, .000, .002, .000, .000, .005, .020, .417, .283, .178, .560},
	{.000, .000, .000, .000, .000, .000, .000, .001, .000, .000, .005, .010, .205, .218, .168, .447},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .005, .006, .069, .138, .159, .280},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .005, .001, .035, .054, .132, .100},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .002, .000, .027, .011, .084, .040},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .002, .000, .015, .002, .037, .030},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .005, .000, .009, .017},
	{.000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .000, .007},
}

// PaperTh32Rows holds the Th=32 rows of Tables 3-7 ([table-3][rate*3+size],
// sizes s, l, sl).
var PaperTh32Rows = map[int][12]float64{
	3: {.000, .000, .002, .000, .000, .000, .000, .004, .004, .001, .005, .004},
	4: {.000, .000, .000, .000, .000, .002, .001, .000, .007, .009, .001, .043},
	5: {.000, .000, .000, .000, .000, .000, .000, .000, .006, .073, .090, .124},
	6: {.000, .000, .000, .000, .000, .002, .000, .000, .063, .191, .015, 1.03},
	7: {.001, .000, .001, .000, .003, .007, .020, .052, .060, .203, .347, .260},
}

// PaperNDMOverPDMImprovement is the paper's headline claim: NDM reduces the
// number of (false) deadlock detections by about a factor of 10 relative to
// PDM (and by two orders of magnitude relative to crude timeouts).
const PaperNDMOverPDMImprovement = 10.0

// SaturatedImprovementRatio compares two measured uniform-traffic results
// (a Table-1-style PDM run and a Table-2-style NDM run) the way the paper
// summarizes them: the mean, over saturated-load cells with nonzero PDM
// detection, of PDM% / NDM% (cells where NDM measured zero contribute the
// cap value 100). Rows pair by threshold value, columns by index.
func SaturatedImprovementRatio(pdm, ndm *Result) float64 {
	sum, n := 0.0, 0
	last := len(pdm.Rates) - 1
	for ti, th := range pdm.Table.Thresholds {
		tj := slices.Index(ndm.Table.Thresholds, th)
		if tj < 0 {
			continue
		}
		for si := range pdm.Table.Sizes {
			p := pdm.Cells[ti][last][si].Pct
			q := ndm.Cells[tj][last][si].Pct
			if p == 0 {
				continue
			}
			ratio := 100.0
			if q > 0 {
				ratio = p / q
				if ratio > 100 {
					ratio = 100
				}
			}
			sum += ratio
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
