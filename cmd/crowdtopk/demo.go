package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/engine"
	"crowdtopk/internal/service"
	"crowdtopk/internal/uncertainty"
)

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	n := fs.Int("n", 6, "number of tuples")
	k := fs.Int("k", 3, "result size K")
	budget := fs.Int("budget", 8, "question budget")
	alg := fs.String("alg", engine.AlgT1On, "algorithm")
	measure := fs.String("measure", "MPO", "uncertainty measure")
	accuracy := fs.Float64("accuracy", 1.0, "simulated worker accuracy (0,1]")
	votes := fs.Int("votes", 1, "workers per question (majority vote)")
	width := fs.Float64("width", 2.0, "score support width")
	seed := fs.Int64("seed", 7, "seed")
	interactive := fs.Bool("interactive", false, "you are the crowd: answer the questions on stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := dataset.Generate(dataset.Spec{N: *n, Width: *width, Seed: *seed})
	if err != nil {
		return err
	}
	if _, err := uncertainty.New(*measure); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	truth := crowd.SampleTruth(ds, rng)

	fmt.Printf("dataset: %d tuples with uncertain scores; query: top-%d, budget %d, %s/%s crowd accuracy %.2f\n",
		*n, *k, *budget, *alg, *measure, *accuracy)
	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tuple\tscore distribution\trealized score")
	for i, d := range ds {
		fmt.Fprintf(tw, "t%d\t%s\t%.3f\n", i, d, truth.Scores[i])
	}
	tw.Flush()

	if *interactive {
		// Interactive mode is a service client: the transport-agnostic core
		// plans the questions and conditions the orderings, the terminal
		// user is the crowd — the same loop a platform integration runs
		// over HTTP or the SDK.
		svc, err := service.New(service.Config{})
		if err != nil {
			return err
		}
		defer svc.Close()
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = fmt.Sprintf("t%d %s", i, d)
		}
		info, err := svc.CreateOrRestore(context.Background(), service.CreateRequest{
			Dists: ds, Names: names, K: *k, Budget: *budget,
			Algorithm: *alg, Measure: *measure, Seed: *seed,
		})
		if err != nil {
			return err
		}
		client := newInteractiveClient(os.Stdin, os.Stdout)
		if err := client.run(svc, info.ID); err != nil {
			return err
		}
		res, err := svc.Result(context.Background(), info.ID)
		if err != nil {
			return err
		}
		fmt.Printf("\npossible orderings:  %d (asked %d questions, %s)\n", res.Orderings, res.Asked, res.State)
		fmt.Printf("answer:              %v (resolved=%v, uncertainty %.4f)\n", res.Ranking, res.Resolved, res.Uncertainty)
		return nil
	}

	var cr crowd.Crowd
	if *accuracy >= 1 && *votes <= 1 {
		cr = &crowd.PerfectOracle{Truth: truth}
	} else {
		pf, err := crowd.NewUniformPlatform(truth, 12, *accuracy, rng)
		if err != nil {
			return err
		}
		pf.Votes = *votes
		cr = pf
	}
	res, err := engine.Run(engine.Config{
		Dists: ds, K: *k, Budget: *budget, Algorithm: *alg,
		Measure: *measure, Crowd: cr, Truth: truth, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nreal top-%d ordering: %v\n", *k, truth.TopK(*k))
	fmt.Printf("possible orderings:  %d → %d (asked %d questions)\n",
		res.InitialLeaves, res.FinalLeaves, res.Asked)
	fmt.Printf("distance to truth:   %.4f → %.4f\n", res.InitialDistance, res.FinalDistance)
	fmt.Printf("answer:              %v (resolved=%v)\n", res.FinalOrdering, res.Resolved)
	return nil
}
