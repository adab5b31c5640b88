module adaptio/bench

go 1.23

require adaptio v0.0.0

replace adaptio => ../
