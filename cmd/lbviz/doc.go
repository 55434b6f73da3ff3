// Command lbviz renders an ASCII picture of a dual graph embedding: node
// positions over the Lemma A.1 grid region partition, plus degree and
// region-occupancy summaries. With -phases it also runs LBAlg on the state
// bank and draws a per-phase activity timeline. It is a debugging aid for
// the geometric substrate.
//
// The map has one character per ½×½ region and at most 65,536 of them, and
// -phases may ask for at most core.MaxRounds rounds; larger requests are
// errors before anything is built.
//
// Usage:
//
//	lbviz -n 60 -w 8 -h 6 -r 1.5 -seed 3
//	lbviz -n 30 -phases 1
package main
