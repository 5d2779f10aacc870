package experiments

import (
	"repro/internal/machine"
	"repro/internal/recovery/shadow"
)

// Table4 reproduces "Impact of the Shadow Mechanism": bare machine vs one
// and two page-table processors, both metrics, four configurations.
func Table4(opt Options) (*Table, error) {
	t := &Table{
		ID:    "table4",
		Title: "Impact of the Shadow Mechanism (thru page-table)",
		Columns: []string{"Configuration",
			"Bare e/p", "1 PTProc e/p", "2 PTProc e/p",
			"Bare compl", "1 PTProc compl", "2 PTProc compl"},
		Paper: [][]string{
			{"Conventional-Random", "18.00", "20.51", "17.99", "7398.41", "8367.19", "7758.92"},
			{"Parallel-Random", "16.62", "20.49", "16.69", "6476.04", "8352.91", "6962.23"},
			{"Conventional-Sequential", "11.01", "10.98", "10.99", "4016.46", "4066.86", "4061.19"},
			{"Parallel-Sequential", "1.92", "1.94", "1.93", "758.06", "829.34", "816.29"},
		},
	}
	// Cell i is configuration i/3 run bare, with one, or with two
	// page-table processors (i%3).
	res, err := runCells(opt, len(fourConfigs)*3, func(i int) (machine.Config, machine.Model) {
		var mdl machine.Model
		if n := i % 3; n > 0 {
			mdl = shadow.NewPageTable(shadow.Config{PageTableProcessors: n})
		}
		return fourConfigs[i/3].config(opt), mdl
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range fourConfigs {
		bare, one, two := res[ci*3], res[ci*3+1], res[ci*3+2]
		t.Rows = append(t.Rows, []string{c.Name,
			ms(bare.ExecPerPageMs), ms(one.ExecPerPageMs), ms(two.ExecPerPageMs),
			ms(bare.MeanCompletionMs), ms(one.MeanCompletionMs), ms(two.MeanCompletionMs)})
	}
	t.Notes = "random transactions bottleneck on one page-table processor; two restore the I/O bound"
	return t, nil
}

// Table5 reproduces "Average Utilization of Data and Page-Table Disks".
func Table5(opt Options) (*Table, error) {
	t := &Table{
		ID:    "table5",
		Title: "Average Utilization of Data and Page-Table Disks",
		Columns: []string{"Configuration",
			"Bare data", "1 PT: data", "1 PT: ptdisk", "2 PT: data", "2 PT: ptdisk"},
		Paper: [][]string{
			{"Conventional-Random", "0.99", "0.86", "0.60", "0.99", "~0.3"},
			{"Parallel-Random", "1.00", "0.85", "0.64", "1.00", "~0.3"},
			{"Conventional-Sequential", "0.75", "0.75", "0.03", "0.75", "~0.02"},
			{"Parallel-Sequential", "0.92", "0.90", "0.16", "0.91", "~0.1"},
		},
	}
	res, err := runCells(opt, len(fourConfigs)*3, func(i int) (machine.Config, machine.Model) {
		var mdl machine.Model
		if n := i % 3; n > 0 {
			mdl = shadow.NewPageTable(shadow.Config{PageTableProcessors: n})
		}
		return fourConfigs[i/3].config(opt), mdl
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range fourConfigs {
		bare, one, two := res[ci*3], res[ci*3+1], res[ci*3+2]
		t.Rows = append(t.Rows, []string{c.Name,
			ratio(bare.DataDiskUtil),
			ratio(one.DataDiskUtil), ratio(one.Extra["pt.diskUtil"]),
			ratio(two.DataDiskUtil), ratio(two.Extra["pt.diskUtil"])})
	}
	return t, nil
}

// diskKinds are the two data-disk variants several shadow tables sweep.
var diskKinds = []struct {
	Name     string
	Parallel bool
}{
	{"Conventional", false},
	{"Parallel-access", true},
}

// Table6 reproduces "Execution Time per Page (1 Page-Table Processor)": the
// page-table buffer size sweep for random transactions.
func Table6(opt Options) (*Table, error) {
	t := &Table{
		ID:      "table6",
		Title:   "Page-Table Buffer Size (random transactions, 1 PT processor)",
		Columns: []string{"Data Disk Type", "Bare", "buf=10", "buf=25", "buf=50"},
		Paper: [][]string{
			{"Conventional", "18.00", "20.51", "18.02", "18.01"},
			{"Parallel-access", "16.62", "20.49", "17.18", "16.70"},
		},
	}
	bufs := []int{10, 25, 50}
	perKind := 1 + len(bufs) // bare, then one cell per buffer size
	res, err := runCells(opt, len(diskKinds)*perKind, func(i int) (machine.Config, machine.Model) {
		cfg := machine.DefaultConfig()
		cfg.ParallelDisks = diskKinds[i/perKind].Parallel
		cfg = opt.apply(cfg)
		if j := i % perKind; j > 0 {
			return cfg, shadow.NewPageTable(shadow.Config{BufferPages: bufs[j-1]})
		}
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range diskKinds {
		row := []string{k.Name}
		for j := 0; j < perKind; j++ {
			row = append(row, ms(res[ki*perKind+j].ExecPerPageMs))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "a buffer holding the whole page table annuls the shadow degradation"
	return t, nil
}

// Table7 reproduces "Execution Time per Page (Sequential Transactions)":
// bare machine, clustered and scrambled thru-page-table shadow, and the
// no-undo overwriting architecture.
func Table7(opt Options) (*Table, error) {
	t := &Table{
		ID:      "table7",
		Title:   "Sequential Transactions: placement and overwriting",
		Columns: []string{"Data Disk Type", "Bare", "Clustered (PT)", "Scrambled (PT)", "Overwriting"},
		Paper: [][]string{
			{"Conventional", "11.01", "10.98", "20.74", "24.08"},
			{"Parallel-access", "1.92", "1.94", "18.54", "2.31"},
		},
	}
	models := []func() machine.Model{
		func() machine.Model { return nil },
		func() machine.Model { return shadow.NewPageTable(shadow.Config{}) },
		func() machine.Model { return shadow.NewPageTable(shadow.Config{Scrambled: true}) },
		func() machine.Model { return shadow.NewOverwrite(shadow.Config{}, true) },
	}
	res, err := runCells(opt, len(diskKinds)*len(models), func(i int) (machine.Config, machine.Model) {
		cfg := machine.DefaultConfig()
		cfg.ParallelDisks = diskKinds[i/len(models)].Parallel
		cfg.Workload.Sequential = true
		return opt.apply(cfg), models[i%len(models)]()
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range diskKinds {
		row := []string{k.Name}
		for j := range models {
			row = append(row, ms(res[ki*len(models)+j].ExecPerPageMs))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "scrambling destroys sequentiality; overwriting preserves it and wins on parallel disks"
	return t, nil
}

// Table8 reproduces "Execution Time per Page (Random Transactions)": bare,
// thru-page-table shadow, and overwriting.
func Table8(opt Options) (*Table, error) {
	t := &Table{
		ID:      "table8",
		Title:   "Random Transactions: thru page-table vs overwriting",
		Columns: []string{"Data Disk Type", "Bare", "thru PageTable", "Overwriting"},
		Paper: [][]string{
			{"Conventional", "18.00", "20.51", "26.94"},
			{"Parallel-access", "16.62", "20.49", "21.65"},
		},
	}
	models := []func() machine.Model{
		func() machine.Model { return nil },
		func() machine.Model { return shadow.NewPageTable(shadow.Config{}) },
		func() machine.Model { return shadow.NewOverwrite(shadow.Config{}, true) },
	}
	res, err := runCells(opt, len(diskKinds)*len(models), func(i int) (machine.Config, machine.Model) {
		cfg := machine.DefaultConfig()
		cfg.ParallelDisks = diskKinds[i/len(models)].Parallel
		return opt.apply(cfg), models[i%len(models)]()
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range diskKinds {
		row := []string{k.Name}
		for j := range models {
			row = append(row, ms(res[ki*len(models)+j].ExecPerPageMs))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "overwriting needs extra data-disk accesses that cannot be overlapped"
	return t, nil
}
