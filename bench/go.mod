module tradenet/bench

go 1.22

require tradenet v0.0.0

replace tradenet => ../
