module chaos/bench

go 1.24

require chaos v0.0.0

replace chaos => ../
